package fabric

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// drainOne extracts one frame from the shard, or nil when it is empty.
func drainOne(t *testing.T, v *voqShard[int]) *frame[int] {
	t.Helper()
	fr := newFrame[int](v.n)
	if !v.buildFrame(fr) {
		return nil
	}
	return fr
}

// chunksInUse counts the store chunks allocated so far.
func chunksInUse[T any](s *voqStore[T]) int {
	n := 0
	for k := range s.chunks {
		if s.chunks[k].Load() != nil {
			n++
		}
	}
	return n
}

// TestVOQStoreFIFOAndBound fills one flow to its exact depth (not a
// power of two) and drains it, over thirty times depth pushes, checking
// FIFO order, the bound, and that drained nodes are reused: the store
// never grows past its first chunk. Odd rounds leave one packet behind,
// so pushes land behind a queued packet as well as into an empty flow.
func TestVOQStoreFIFOAndBound(t *testing.T) {
	const depth = 5
	var s voqStore[int]
	var f voqFlow
	var queued []int // model of the flow's contents
	next := 0
	for round := 0; round < 40; round++ {
		for len(queued) < depth {
			if !s.push(&f, depth, Packet[int]{Payload: next}, time.Now().UnixNano()) {
				t.Fatalf("round %d: push refused with %d of %d queued", round, len(queued), depth)
			}
			queued = append(queued, next)
			next++
		}
		if s.push(&f, depth, Packet[int]{Payload: -1}, time.Now().UnixNano()) {
			t.Fatalf("round %d: push beyond the bound accepted", round)
		}
		for len(queued) > round%2 {
			p, _, ok := s.pop(&f)
			if !ok {
				t.Fatalf("round %d: pop found the flow empty with %d queued", round, len(queued))
			}
			if p.Payload != queued[0] {
				t.Fatalf("round %d: popped %d, want %d (FIFO broken)", round, p.Payload, queued[0])
			}
			queued = queued[1:]
		}
		if len(queued) == 0 {
			if _, _, ok := s.pop(&f); ok {
				t.Fatalf("round %d: pop from an empty flow succeeded", round)
			}
			if f.head.Load() != 0 || f.tail.Load() != 0 || f.count.Load() != 0 {
				t.Fatalf("round %d: drained flow keeps a node: head %d tail %d count %d",
					round, f.head.Load(), f.tail.Load(), f.count.Load())
			}
		}
	}
	if next < 10*depth {
		t.Fatalf("only %d pushes, want at least %d", next, 10*depth)
	}
	if c := chunksInUse(&s); c != 1 {
		t.Fatalf("store grew to %d chunks for a flow of depth %d: freed nodes not reused", c, depth)
	}
}

// TestVOQStoreGrowsAcrossChunks queues more packets than the first
// chunks hold and checks node addressing across chunk boundaries.
func TestVOQStoreGrowsAcrossChunks(t *testing.T) {
	const total = storeBase * 13
	var s voqStore[int]
	var f voqFlow
	for i := 0; i < total; i++ {
		if !s.push(&f, total, Packet[int]{Payload: i}, 0) {
			t.Fatalf("push %d refused", i)
		}
	}
	if c := chunksInUse(&s); c != 4 { // 64+128+256+512 ≥ 832
		t.Fatalf("%d packets took %d chunks, want 4", total, c)
	}
	for i := 0; i < total; i++ {
		p, _, ok := s.pop(&f)
		if !ok || p.Payload != i {
			t.Fatalf("pop %d: got %d (ok %v)", i, p.Payload, ok)
		}
	}
}

// TestVOQStoreConcurrentProducers races several senders on one shallow
// flow against a consumer, as the scheduler sees it: every packet comes
// out exactly once, and each producer's packets come out in the order
// it pushed them. Run under -race, it also checks the node handoff
// between senders, the consumer and the free list. Lost packets stall
// the producers on the full flow, so a stall fails the test.
func TestVOQStoreConcurrentProducers(t *testing.T) {
	const (
		producers = 4
		each      = 5000
		depth     = 8
		stall     = 10 * time.Second
	)
	var s voqStore[int]
	var f voqFlow
	var wg sync.WaitGroup
	var finished, abort atomic.Bool
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				for !s.push(&f, depth, Packet[int]{Src: pr, Payload: i}, 0) {
					if abort.Load() {
						return
					}
					runtime.Gosched()
				}
			}
		}(pr)
	}
	go func() {
		wg.Wait()
		finished.Store(true)
	}()
	next := make([]int, producers)
	progress := time.Now()
	for got := 0; got < producers*each; {
		// Once every push has returned, every node is linked: a failed
		// pop then means the remaining packets were lost.
		fin := finished.Load()
		p, _, ok := s.pop(&f)
		if !ok {
			if fin || time.Since(progress) > stall {
				abort.Store(true)
				wg.Wait()
				t.Fatalf("flow stuck after %d of %d packets: the rest were lost", got, producers*each)
			}
			runtime.Gosched()
			continue
		}
		progress = time.Now()
		if p.Payload != next[p.Src] {
			abort.Store(true)
			wg.Wait()
			t.Fatalf("producer %d: popped %d, want %d (lost, duplicated or reordered)", p.Src, p.Payload, next[p.Src])
		}
		next[p.Src]++
		got++
	}
	wg.Wait()
	if _, _, ok := s.pop(&f); ok || f.count.Load() != 0 {
		t.Fatalf("flow not empty after every packet was popped: count %d", f.count.Load())
	}
	if c := chunksInUse(&s); c != 1 {
		t.Fatalf("depth-%d flow grew the store to %d chunks", depth, c)
	}
}

// TestMulticastFlowPeek checks peek on a multicast input flow: it shows
// the oldest packet without consuming it, and the next pop returns that
// same packet.
func TestMulticastFlowPeek(t *testing.T) {
	v := newVOQShard[int](4, 4, nil)
	if _, ok := v.mstore.peek(&v.mflows[2]); ok {
		t.Fatal("peek on an empty multicast flow succeeded")
	}
	for i := 0; i < 3; i++ {
		p := Packet[mpayload[int]]{Src: 2, Dst: i, Payload: mpayload[int]{dsts: []int{i, 3}, data: 10 + i}}
		if err := v.enqueueMcast(p, DropNew); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		for look := 0; look < 2; look++ {
			h, ok := v.mstore.peek(&v.mflows[2])
			if !ok || h.Payload.data != 10+i {
				t.Fatalf("peek %d/%d: got %+v (ok %v), want payload %d", i, look, h, ok, 10+i)
			}
		}
		p, _, ok := v.mstore.pop(&v.mflows[2])
		if !ok || p.Payload.data != 10+i || p.Payload.dsts[0] != i {
			t.Fatalf("pop %d after peek: got %+v (ok %v)", i, p, ok)
		}
	}
	if _, ok := v.mstore.peek(&v.mflows[2]); ok {
		t.Fatal("peek after draining the multicast flow succeeded")
	}
}

// TestVOQShardFootprint pushes one packet into every flow of an N=256,
// depth-64 shard and drains it. The shard must keep no more than
// 16 MiB of heap: flows cost their header, packets their node, and the
// depth bound costs nothing.
func TestVOQShardFootprint(t *testing.T) {
	const n = 256
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := newVOQShard[int](n, DefaultVOQDepth, nil)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if err := v.enqueue(Packet[int]{Src: src, Dst: dst}, DropNew); err != nil {
				t.Fatal(err)
			}
		}
	}
	fr := newFrame[int](n)
	drained := 0
	for v.buildFrame(fr) {
		drained += len(fr.pkts)
	}
	if drained != n*n {
		t.Fatalf("drained %d of %d packets", drained, n*n)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	kept := int64(after.HeapInuse) - int64(before.HeapInuse)
	runtime.KeepAlive(v)
	t.Logf("N=%d depth %d shard keeps %.1f MiB after one packet per flow", n, DefaultVOQDepth, float64(kept)/(1<<20))
	if kept > 16<<20 {
		t.Fatalf("shard keeps %d bytes of heap, want <= 16 MiB", kept)
	}
}

// TestBuildFrameConflictFree fills a shard with random traffic and
// checks every extracted frame is a conflict-free matching: at most one
// packet per input and per output, dest consistent with the packets.
func TestBuildFrameConflictFree(t *testing.T) {
	const n = 16
	v := newVOQShard[int](n, 8, nil)
	rng := rand.New(rand.NewSource(2))
	queued := 0
	for i := 0; i < 300; i++ {
		p := Packet[int]{Src: rng.Intn(n), Dst: rng.Intn(n), Payload: i}
		if v.enqueue(p, DropNew) == nil {
			queued++
		}
	}
	drained := 0
	for {
		fr := drainOne(t, v)
		if fr == nil {
			break
		}
		if err := fr.dest.Validate(); err != nil {
			t.Fatalf("frame dest is not a permutation: %v", err)
		}
		seenIn := make(map[int]bool)
		seenOut := make(map[int]bool)
		for k, pkt := range fr.pkts {
			if seenIn[pkt.Src] || seenOut[pkt.Dst] {
				t.Fatalf("frame reuses input %d or output %d", pkt.Src, pkt.Dst)
			}
			seenIn[pkt.Src] = true
			seenOut[pkt.Dst] = true
			if fr.srcs[k] != pkt.Src || fr.dsts[k] != pkt.Dst {
				t.Fatal("frame coordinate slices disagree with the packets")
			}
			if fr.dest[pkt.Src] != pkt.Dst {
				t.Fatalf("dest[%d]=%d but packet wants %d", pkt.Src, fr.dest[pkt.Src], pkt.Dst)
			}
		}
		drained += len(fr.pkts)
	}
	if drained != queued {
		t.Fatalf("drained %d of %d queued packets", drained, queued)
	}
	if occ := v.occupancy(); occ != 0 {
		t.Fatalf("VOQs should be empty, occupancy %d", occ)
	}
}

// TestVOQTailDrop fills one flow to its bound and checks the drop
// accounting.
func TestVOQTailDrop(t *testing.T) {
	v := newVOQShard[int](4, 2, nil)
	p := Packet[int]{Src: 1, Dst: 3}
	for i := 0; i < 2; i++ {
		if err := v.enqueue(p, DropNew); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if err := v.enqueue(p, DropNew); err != ErrBackpressure {
		t.Fatalf("third enqueue should tail-drop, got %v", err)
	}
	// A different output from the same input still has room.
	if err := v.enqueue(Packet[int]{Src: 1, Dst: 0}, DropNew); err != nil {
		t.Fatalf("other VOQ of the same input must be independent: %v", err)
	}
	s := v.snapshot()
	if s[1].Enqueued != 3 || s[1].Dropped != 1 || s[1].Occupied != 3 || s[1].MaxDepth != 3 {
		t.Fatalf("input 1 counters wrong: %+v", s[1])
	}
}

// TestVOQRoundRobinRotates checks the scheduler's pointers rotate: two
// inputs contending for one output must split wins evenly across
// frames.
func TestVOQRoundRobinRotates(t *testing.T) {
	const n = 4
	v := newVOQShard[int](n, 8, nil)
	for i := 0; i < 4; i++ {
		v.enqueue(Packet[int]{Src: 0, Dst: 2, Payload: 100 + i}, DropNew)
		v.enqueue(Packet[int]{Src: 1, Dst: 2, Payload: 200 + i}, DropNew)
	}
	winners := make(map[int]int)
	for {
		fr := drainOne(t, v)
		if fr == nil {
			break
		}
		if len(fr.pkts) != 1 {
			t.Fatalf("one contended output admits one packet per frame, got %d", len(fr.pkts))
		}
		winners[fr.pkts[0].Src]++
	}
	if winners[0] != 4 || winners[1] != 4 {
		t.Fatalf("rotating pointer should split wins 4/4, got %v", winners)
	}
}

// TestVOQSealRefusesSenders checks the close protocol's admission gate:
// after seal, enqueue returns ErrClosed and the shard still drains what
// it had accepted.
func TestVOQSealRefusesSenders(t *testing.T) {
	v := newVOQShard[int](4, 8, nil)
	if err := v.enqueue(Packet[int]{Src: 0, Dst: 1}, DropNew); err != nil {
		t.Fatalf("enqueue before seal: %v", err)
	}
	v.seal()
	if err := v.enqueue(Packet[int]{Src: 2, Dst: 3}, DropNew); err != ErrClosed {
		t.Fatalf("enqueue after seal should return ErrClosed, got %v", err)
	}
	fr := drainOne(t, v)
	if fr == nil || len(fr.pkts) != 1 || fr.pkts[0].Src != 0 || fr.pkts[0].Dst != 1 {
		t.Fatalf("sealed shard must still drain its accepted packet, got %+v", fr)
	}
	if drainOne(t, v) != nil {
		t.Fatal("shard should be empty after the drain")
	}
}
