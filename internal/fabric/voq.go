package fabric

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DropPolicy selects what Send does when a packet's virtual output
// queue is full.
type DropPolicy int

const (
	// DropNew rejects the incoming packet immediately (tail drop). The
	// caller sees ErrBackpressure and the packet is never accepted, so
	// the fabric's exactly-once delivery guarantee is unaffected.
	DropNew DropPolicy = iota
	// Block makes Send wait until the queue has room (or the fabric
	// closes), pushing backpressure into the caller.
	Block
)

func (p DropPolicy) String() string {
	switch p {
	case DropNew:
		return "drop-new"
	case Block:
		return "block"
	}
	return "unknown"
}

// voqNode is one queued packet in a shard's store. next is a 1-based
// store index (0 ends the chain): the node's successor in its flow's
// FIFO while queued, the next free node while on the free list. enq is
// the enqueue wall clock in UnixNano (an int64, not a time.Time, to keep
// nodes small).
type voqNode[T any] struct {
	next atomic.Uint32
	pkt  Packet[T]
	enq  int64
}

// Store chunk geometry: chunk k holds storeBase<<k nodes, so the chunk
// directory is a fixed array that never has to be copied to grow, and
// storeChunks chunks cover every uint32 index.
const (
	storeShift  = 6
	storeBase   = 1 << storeShift
	storeChunks = 32 - storeShift
)

// voqStore holds a shard's queued packets: nodes in geometrically
// growing chunks, addressed by 1-based uint32 index, and a lock-free
// free list of the nodes not in any flow. Memory therefore tracks the
// high-water mark of packets actually queued (within the 2× of the last
// chunk), not the N²·depth bound of the flows. Nodes are recycled, never
// handed back to the GC, so the steady state allocates nothing.
//
// The free list is a Treiber stack whose head word packs a 32-bit
// version tag above the top index. Senders pop from it and the
// scheduler pushes onto it; because nodes are reused, a pop that read a
// stale top and its successor could otherwise succeed after that node
// was popped and pushed back (ABA), and the tag makes such a CAS fail.
type voqStore[T any] struct {
	free    atomic.Uint64
	chunks  [storeChunks]atomic.Pointer[[]voqNode[T]]
	growing atomic.Bool // held by the one sender adding a chunk
	grown   int         // chunks installed; guarded by growing
}

// node returns the node with 1-based index i.
func (s *voqStore[T]) node(i uint32) *voqNode[T] {
	j := uint64(i) - 1 + storeBase
	k := bits.Len64(j) - 1 - storeShift
	return &(*s.chunks[k].Load())[j-storeBase<<k]
}

// alloc takes a node off the free list, growing the store when it is
// empty.
func (s *voqStore[T]) alloc() (uint32, *voqNode[T]) {
	for {
		old := s.free.Load()
		i := uint32(old)
		if i == 0 {
			if i = s.grow(); i != 0 {
				return i, s.node(i)
			}
			continue
		}
		nd := s.node(i)
		if s.free.CompareAndSwap(old, (old>>32+1)<<32|uint64(nd.next.Load())) {
			return i, nd
		}
	}
}

// release pushes the chain head → … → tail (linked through next) onto
// the free list.
func (s *voqStore[T]) release(head, tail uint32) {
	tn := s.node(tail)
	for {
		old := s.free.Load()
		tn.next.Store(uint32(old))
		if s.free.CompareAndSwap(old, (old>>32+1)<<32|uint64(head)) {
			return
		}
	}
}

// grow installs the next chunk, keeps its first node for the caller and
// frees the rest. One sender grows at a time: the others, and a grower
// that finds nodes were freed meanwhile, return 0 and retry the free
// list, so a burst of senders hitting an empty list adds one chunk, not
// one each.
func (s *voqStore[T]) grow() uint32 {
	if !s.growing.CompareAndSwap(false, true) {
		runtime.Gosched()
		return 0
	}
	defer s.growing.Store(false)
	if uint32(s.free.Load()) != 0 {
		return 0
	}
	k := s.grown
	if k == storeChunks {
		panic("fabric: VOQ store exhausted its index space")
	}
	nodes := make([]voqNode[T], storeBase<<k)
	first := uint32(storeBase*(1<<k-1)) + 1
	last := first + uint32(len(nodes)) - 1
	for i := first + 1; i < last; i++ {
		nodes[i-first].next.Store(i + 1)
	}
	s.chunks[k].Store(&nodes)
	s.grown++
	s.release(first+1, last)
	return first
}

// voqFlow is one virtual output queue: a FIFO of store nodes with many
// producers (senders) and a single consumer (the owning shard's
// scheduler). count is the number of packets admitted and not yet
// popped; senders reserve a place by CAS on it before taking a node, so
// it enforces the depth bound exactly. An idle flow holds no node.
//
// A sender links its node by swapping it into tail and then either
// storing it as head (the flow was empty) or linking it behind the
// previous tail. The consumer retires the last node by CAS-ing tail
// back to 0; when that CAS loses to a sender that is still linking, the
// head stays queued until the link lands.
type voqFlow struct {
	head  atomic.Uint32
	tail  atomic.Uint32
	count atomic.Int64
}

// push admits one packet into f; false means f already holds depth
// packets.
func (s *voqStore[T]) push(f *voqFlow, depth int64, p Packet[T], enq int64) bool {
	for {
		c := f.count.Load()
		if c >= depth {
			return false
		}
		if f.count.CompareAndSwap(c, c+1) {
			break
		}
	}
	i, nd := s.alloc()
	nd.pkt, nd.enq = p, enq
	nd.next.Store(0)
	if prev := f.tail.Swap(i); prev == 0 {
		f.head.Store(i)
	} else {
		s.node(prev).next.Store(i)
	}
	return true
}

// pop takes f's oldest packet; enq is its enqueue UnixNano. It reports
// false when f is empty or its head is the last node and a sender is
// still linking a successor behind it — count then stays above zero and
// the packet is taken by a later pop. Single consumer only.
func (s *voqStore[T]) pop(f *voqFlow) (Packet[T], int64, bool) {
	var zero Packet[T]
	h := f.head.Load()
	if h == 0 {
		return zero, 0, false
	}
	nd := s.node(h)
	if next := nd.next.Load(); next != 0 {
		f.head.Store(next)
	} else if f.tail.CompareAndSwap(h, 0) {
		// A sender that swapped tail after this CAS stores its node
		// as head itself; only clear head if it has not done so yet.
		f.head.CompareAndSwap(h, 0)
	} else if next = nd.next.Load(); next != 0 {
		f.head.Store(next)
	} else {
		return zero, 0, false
	}
	p, enq := nd.pkt, nd.enq
	nd.pkt = zero // release payload and trace references
	f.count.Add(-1)
	s.release(h, h)
	return p, enq, true
}

// peek exposes f's oldest linked packet without consuming it. Single
// consumer only; the pointer is valid until the next pop of f.
func (s *voqStore[T]) peek(f *voqFlow) (*Packet[T], bool) {
	h := f.head.Load()
	if h == 0 {
		return nil, false
	}
	return &s.node(h).pkt, true
}

// voqInputCounters is the per-input slice of VOQ accounting, exported
// through VOQSnapshot. All fields are atomics: producers bump them
// outside any lock.
type voqInputCounters struct {
	enqueued atomic.Int64 // packets accepted into this input's queues
	dropped  atomic.Int64 // packets rejected by tail drop
	occupied atomic.Int64 // packets currently queued
	maxDepth atomic.Int64 // high-water mark of occupied
}

// voqShard is one switching plane's slice of the fabric ingress: an N²
// grid of per-flow FIFO headers over one packet store, a per-input
// nonempty bitmap, and the iSLIP-style rotating pointers of its
// scheduler. Flow hashing assigns every (src, dst) flow to exactly one
// shard, so across shards only N² flows are ever in use. A flow header
// is 16 bytes and holds no node while idle; queued packets live in the
// store's recycled nodes, so the shard's memory follows the packets
// queued, not N²·depth.
//
// Producers (Send) touch only lock-free state: flow push, counter adds,
// bitmap set. The single consumer — the shard's scheduler goroutine —
// owns pop, bitmap clearing, and the rotating pointers. The only lock
// is the Block-policy parking lot, paid exclusively by senders that
// found their flow full.
type voqShard[T any] struct {
	n     int
	depth int64 // per-flow bound
	words int   // bitmap words per input
	met   *metrics

	store    voqStore[T]
	flows    []voqFlow          // flows[in*n+out]
	nonempty []atomic.Uint64    // nonempty[in*words+out/64]
	counts   []voqInputCounters // per input

	// Multicast ingress: one flow per input (a fan-out packet targets
	// many outputs, so the per-(input, output) grid does not apply; one
	// flow per input preserves per-input FIFO order among its multicast
	// packets), over a store of its own that allocates nothing until the
	// first multicast packet. mcastQueued counts packets across them.
	mstore      voqStore[mpayload[T]]
	mflows      []voqFlow
	mcastQueued atomic.Int64

	// Close protocol: inflight counts senders between admission check
	// and flow publish; seal flips sealed, then waits for inflight to
	// reach zero, after which a final drain observes every accepted
	// packet.
	sealed   atomic.Bool
	inflight atomic.Int64

	// notify wakes the scheduler when work arrives; capacity 1 so
	// enqueues never block on it.
	notify chan struct{}

	// Block-policy parking lot. waiters is read lock-free by the
	// consumer to skip the lock when nobody is parked.
	blockMu sync.Mutex
	space   *sync.Cond
	waiters atomic.Int64

	// Consumer-private scheduler state: the iSLIP rotating pointers and
	// matching scratch. Owned by the scheduler goroutine; no
	// synchronization.
	rrIn    int
	rrOut   []int
	partial []int
	taken   []bool
}

func newVOQShard[T any](n, depth int, met *metrics) *voqShard[T] {
	v := &voqShard[T]{
		n:       n,
		depth:   int64(depth),
		words:   (n + 63) / 64,
		met:     met,
		flows:   make([]voqFlow, n*n),
		counts:  make([]voqInputCounters, n),
		mflows:  make([]voqFlow, n),
		notify:  make(chan struct{}, 1),
		rrOut:   make([]int, n),
		partial: make([]int, n),
		taken:   make([]bool, n),
	}
	v.nonempty = make([]atomic.Uint64, n*v.words)
	v.space = sync.NewCond(&v.blockMu)
	return v
}

// setBit / clearBit are CAS loops because the go.mod language version
// predates the atomic Or/And methods.
func orBit(w *atomic.Uint64, bit uint64) {
	for {
		old := w.Load()
		if old&bit != 0 || w.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

func andNotBit(w *atomic.Uint64, bit uint64) {
	for {
		old := w.Load()
		if old&bit == 0 || w.CompareAndSwap(old, old&^bit) {
			return
		}
	}
}

// enqueue publishes p into its VOQ, honouring the drop policy.
func (v *voqShard[T]) enqueue(p Packet[T], policy DropPolicy) error {
	v.inflight.Add(1)
	defer v.inflight.Add(-1)
	if v.sealed.Load() {
		return ErrClosed
	}
	f := &v.flows[p.Src*v.n+p.Dst]
	if !v.store.push(f, v.depth, p, time.Now().UnixNano()) {
		if policy == DropNew {
			v.counts[p.Src].dropped.Add(1)
			return ErrBackpressure
		}
		if err := v.park(func() bool { return v.store.push(f, v.depth, p, time.Now().UnixNano()) }); err != nil {
			return err
		}
	}
	c := &v.counts[p.Src]
	c.enqueued.Add(1)
	occ := c.occupied.Add(1)
	for {
		m := c.maxDepth.Load()
		if occ <= m || c.maxDepth.CompareAndSwap(m, occ) {
			break
		}
	}
	orBit(&v.nonempty[p.Src*v.words+p.Dst>>6], 1<<uint(p.Dst&63))
	select {
	case v.notify <- struct{}{}:
	default:
	}
	return nil
}

// park is the Block policy: it retries push until it succeeds or the
// shard seals, sleeping on the parking lot in between. The waiter count
// is raised before each retry so the consumer's post-pop check cannot
// miss a sender that observed its flow full just before the pop freed a
// place.
func (v *voqShard[T]) park(push func() bool) error {
	t0 := time.Now()
	v.blockMu.Lock()
	defer v.blockMu.Unlock()
	for {
		if v.sealed.Load() {
			return ErrClosed
		}
		v.waiters.Add(1)
		if push() {
			v.waiters.Add(-1)
			break
		}
		v.space.Wait()
		v.waiters.Add(-1)
	}
	if v.met != nil {
		v.met.EnqueueWait.ObserveSince(t0)
	}
	return nil
}

// signalSpace wakes parked senders after the scheduler freed places in
// their flows. The lock is taken only when somebody is actually parked.
func (v *voqShard[T]) signalSpace() {
	if v.waiters.Load() == 0 {
		return
	}
	v.blockMu.Lock()
	v.space.Broadcast()
	v.blockMu.Unlock()
}

// seal stops admissions: senders racing the seal either complete their
// publish (and are observed by the final drain) or see ErrClosed, and
// parked senders are woken to see it too. On return every accepted
// packet is linked into its flow.
func (v *voqShard[T]) seal() {
	v.blockMu.Lock()
	v.sealed.Store(true)
	v.space.Broadcast()
	v.blockMu.Unlock()
	for v.inflight.Load() != 0 {
		runtime.Gosched()
	}
}

// nextSet returns the smallest bit index in [from, hi) set in the
// input's bitmap slice bm, or -1.
func nextSet(bm []atomic.Uint64, from, hi int) int {
	if from >= hi {
		return -1
	}
	w := from >> 6
	word := bm[w].Load() & (^uint64(0) << uint(from&63))
	for {
		if word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			if i >= hi {
				return -1
			}
			return i
		}
		w++
		if w >= len(bm) || w<<6 >= hi {
			return -1
		}
		word = bm[w].Load()
	}
}

// clearIfEmpty drops the (in, out) nonempty bit when flow f has
// drained, then re-checks: a producer that published between the
// emptiness check and the clear re-raises its bit after the push, but a
// producer that published *before* the clear would be lost without the
// re-check.
func (v *voqShard[T]) clearIfEmpty(in, out int, f *voqFlow) {
	w := &v.nonempty[in*v.words+out>>6]
	bit := uint64(1) << uint(out&63)
	andNotBit(w, bit)
	if f.count.Load() > 0 {
		orBit(w, bit)
	}
}

// buildFrame extracts a conflict-free partial matching — at most one
// packet per input and per output — into fr and completes it to a full
// permutation. It reports false when every flow is empty. Inputs are
// scanned from a rotating start, and each input scans its outputs from
// its own rotating pointer, so repeated frames cycle through contending
// pairs instead of always favouring low indices. Consumer only.
func (v *voqShard[T]) buildFrame(fr *frame[T]) bool {
	tick := time.Now()
	tickNano := tick.UnixNano()
	n := v.n
	partial, taken := v.partial, v.taken
	for i := range partial {
		partial[i] = Idle
	}
	for i := range taken {
		taken[i] = false
	}
	fr.reset()
	// Multicast heads first: a fan-out packet needs its input and every
	// one of its destinations free, so it gets first pick of the outputs
	// before the unicast matching fragments them.
	if v.mcastQueued.Load() > 0 {
		v.claimMulticast(fr, partial, taken, tickNano)
	}
	for k := 0; k < n; k++ {
		in := (v.rrIn + k) % n
		if partial[in] != Idle {
			continue // input claimed by a multicast head
		}
		if v.counts[in].occupied.Load() == 0 {
			continue
		}
		bm := v.nonempty[in*v.words : (in+1)*v.words]
		// Scan candidate outputs from the rotating pointer, wrapping
		// once: non-empty per the bitmap and not yet claimed.
		start := v.rrOut[in]
		matched := false
		for pass := 0; pass < 2 && !matched; pass++ {
			lo, hi := start, n
			if pass == 1 {
				lo, hi = 0, start
			}
			for j := nextSet(bm, lo, hi); j != -1; j = nextSet(bm, j+1, hi) {
				if taken[j] {
					continue
				}
				f := &v.flows[in*n+j]
				pkt, enq, ok := v.store.pop(f)
				if !ok {
					v.clearIfEmpty(in, j, f)
					continue
				}
				if f.count.Load() == 0 {
					v.clearIfEmpty(in, j, f)
				}
				v.counts[in].occupied.Add(-1)
				wait := time.Duration(tickNano - enq)
				if v.met != nil {
					v.met.VOQWait.Observe(wait)
				}
				pkt.Trace.SpanDur("voq_wait", time.Unix(0, enq), wait, "")
				partial[in] = j
				taken[j] = true
				fr.pkts = append(fr.pkts, pkt)
				fr.srcs = append(fr.srcs, in)
				fr.dsts = append(fr.dsts, j)
				v.rrOut[in] = (j + 1) % n
				matched = true
				break
			}
		}
	}
	if len(fr.pkts) == 0 {
		return false
	}
	v.rrIn = (v.rrIn + 1) % n
	v.signalSpace()
	if v.met != nil {
		v.met.Match.ObserveSince(tick)
	}
	if fr.mcast {
		// A frame with fan-out is a mapping, not a permutation: rebuild
		// the output-major view from the claimed pairs. Unassigned
		// outputs stay Idle — the copy-network compiler parks them.
		for i := range fr.outSrc {
			fr.outSrc[i] = Idle
		}
		for k, d := range fr.dsts {
			fr.outSrc[d] = fr.srcs[k]
		}
		return true
	}
	completeInto(partial, fr.dest, taken)
	return true
}

// occupancy returns the shard's total queued packets, multicast
// included.
func (v *voqShard[T]) occupancy() int64 {
	total := v.mcastQueued.Load()
	for i := range v.counts {
		total += v.counts[i].occupied.Load()
	}
	return total
}

// snapshot copies the per-input counters. Occupied is read before
// Enqueued: senders bump enqueued before occupied, so occupied never
// exceeds enqueued at any instant, and reading them in this order keeps
// Enqueued >= Occupied in the copy while senders race the read.
func (v *voqShard[T]) snapshot() []VOQInputCounters {
	out := make([]VOQInputCounters, v.n)
	for i := range v.counts {
		c := &v.counts[i]
		occ := c.occupied.Load()
		out[i] = VOQInputCounters{
			Enqueued: c.enqueued.Load(),
			Dropped:  c.dropped.Load(),
			Occupied: occ,
			MaxDepth: c.maxDepth.Load(),
		}
	}
	return out
}
