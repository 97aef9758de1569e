package fabric

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// tracker records deliveries by packet id and checks each packet lands
// on the destination it asked for.
type tracker struct {
	t         *testing.T
	delivered []atomic.Int64
	wantDst   []atomic.Int64 // Dst+1 recorded at send time (0 = unsent)
}

func newTracker(t *testing.T, capacity int) *tracker {
	return &tracker{
		t:         t,
		delivered: make([]atomic.Int64, capacity),
		wantDst:   make([]atomic.Int64, capacity),
	}
}

func (tr *tracker) deliver(p Packet[int]) {
	if want := tr.wantDst[p.Payload].Load(); want != int64(p.Dst)+1 {
		tr.t.Errorf("packet %d delivered to %d, want %d", p.Payload, p.Dst, want-1)
	}
	tr.delivered[p.Payload].Add(1)
}

// checkExactlyOnce asserts every accepted packet was delivered exactly
// once and every rejected packet not at all.
func (tr *tracker) checkExactlyOnce(accepted []bool) {
	for id, acc := range accepted {
		got := tr.delivered[id].Load()
		want := int64(0)
		if acc {
			want = 1
		}
		if got != want {
			tr.t.Fatalf("packet %d: delivered %d times, want %d (accepted=%v)", id, got, want, acc)
		}
	}
}

// TestFabricDeliveryExactlyOnce is the headline correctness test: at
// N=256 with K=4 planes, concurrent senders offer random traffic under
// the tail-drop policy; every accepted packet must be delivered to its
// destination exactly once and every tail-dropped packet must be
// counted as rejected.
func TestFabricDeliveryExactlyOnce(t *testing.T) {
	const (
		logN    = 8 // N = 256
		senders = 8
		perSend = 3000
		total   = senders * perSend
	)
	tr := newTracker(t, total)
	f, err := New[int](Config{LogN: logN, Planes: 4, VOQDepth: 16}, tr.deliver)
	if err != nil {
		t.Fatal(err)
	}

	accepted := make([]bool, total)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			n := f.N()
			for k := 0; k < perSend; k++ {
				id := s*perSend + k
				p := Packet[int]{Src: rng.Intn(n), Dst: rng.Intn(n), Payload: id}
				tr.wantDst[id].Store(int64(p.Dst) + 1)
				switch err := f.Send(p); {
				case err == nil:
					accepted[id] = true
				case errors.Is(err, ErrBackpressure):
				default:
					t.Errorf("send %d: %v", id, err)
				}
			}
		}(s)
	}
	wg.Wait()
	f.Close() // drains the VOQs before returning

	tr.checkExactlyOnce(accepted)
	s := f.Stats()
	nAccepted := int64(0)
	for _, a := range accepted {
		if a {
			nAccepted++
		}
	}
	if s.Accepted != nAccepted || s.Accepted+s.Rejected != total {
		t.Fatalf("accounting broken: accepted=%d rejected=%d of %d", s.Accepted, s.Rejected, total)
	}
	if s.Delivered != nAccepted || s.Lost != 0 {
		t.Fatalf("delivered=%d lost=%d, want %d lost 0", s.Delivered, s.Lost, nAccepted)
	}
	planeFrames := int64(0)
	for _, ps := range s.Planes {
		planeFrames += ps.Frames
	}
	if planeFrames != s.Frames {
		t.Fatalf("plane frame counters (%d) disagree with fabric (%d)", planeFrames, s.Frames)
	}
	// Per-VOQ books: enqueued - occupied must equal delivered.
	enq, occ := int64(0), int64(0)
	for _, c := range s.VOQ.PerInput {
		enq += c.Enqueued
		occ += c.Occupied
	}
	if enq != s.Accepted || occ != 0 {
		t.Fatalf("VOQ books wrong: enqueued=%d occupied=%d", enq, occ)
	}
}

// TestFabricPlaneFailover injects a stuck switch into one of two planes
// mid-load: the damaged plane must detect the first misrouting frame,
// go unhealthy, and hand everything over to the survivor with no
// accepted packet lost or duplicated.
func TestFabricPlaneFailover(t *testing.T) {
	const (
		logN  = 8 // N = 256
		total = 4000
	)
	tr := newTracker(t, total)
	f, err := New[int](Config{LogN: logN, Planes: 2, VOQDepth: 32, Policy: Block}, tr.deliver)
	if err != nil {
		t.Fatal(err)
	}

	accepted := make([]bool, total)
	rng := rand.New(rand.NewSource(99))
	send := func(id int) {
		p := Packet[int]{Src: rng.Intn(f.N()), Dst: rng.Intn(f.N()), Payload: id}
		tr.wantDst[id].Store(int64(p.Dst) + 1)
		if err := f.Send(p); err != nil {
			t.Errorf("send %d: %v", id, err)
			return
		}
		accepted[id] = true
	}
	for id := 0; id < total/4; id++ {
		send(id)
	}
	// Freeze a first-stage switch of plane 0 crossed. Roughly half of
	// all frames need it straight, so detection is near-immediate under
	// the remaining load.
	if err := f.InjectFaults(0, []core.Fault{{Stage: 0, Switch: 3, StuckCrossed: true}}); err != nil {
		t.Fatal(err)
	}
	for id := total / 4; id < total; id++ {
		send(id)
	}
	f.Close()

	tr.checkExactlyOnce(accepted)
	s := f.Stats()
	if s.Delivered != s.Accepted || s.Lost != 0 {
		t.Fatalf("failover lost packets: %+v", s)
	}
	if s.Planes[0].Healthy {
		t.Fatalf("damaged plane should have been detected unhealthy: %+v", s.Planes[0])
	}
	if !s.Planes[1].Healthy || s.Planes[1].Frames == 0 {
		t.Fatalf("surviving plane should carry the load: %+v", s.Planes[1])
	}
	if s.Failovers == 0 && s.Planes[0].Failovers == 0 {
		t.Fatal("failover counters should show the rerouted frames")
	}
}

// TestFabricRepairRestoresPlane heals an injected fault and checks the
// plane rejoins the rotation.
func TestFabricRepairRestoresPlane(t *testing.T) {
	f, err := New[int](Config{LogN: 4, Planes: 2, Policy: Block}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.FailPlane(0); err != nil {
		t.Fatal(err)
	}
	if f.Stats().Planes[0].Healthy {
		t.Fatal("FailPlane must mark the plane down")
	}
	if err := f.RestorePlane(0); err != nil {
		t.Fatal(err)
	}
	if !f.Stats().Planes[0].Healthy {
		t.Fatal("RestorePlane must bring the plane back")
	}
	if err := f.InjectFaults(5, nil); err == nil {
		t.Fatal("faults on a nonexistent plane must error")
	}
}

// TestFabricAllPlanesDown checks the books still balance when no plane
// can serve: accepted packets are counted lost, never silently vanish.
func TestFabricAllPlanesDown(t *testing.T) {
	var delivered atomic.Int64
	f, err := New[int](Config{LogN: 3, Planes: 1}, func(Packet[int]) { delivered.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if err := f.FailPlane(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := f.Send(Packet[int]{Src: i % 8, Dst: (i + 3) % 8}); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	s := f.Stats()
	if delivered.Load() != 0 || s.Delivered != 0 {
		t.Fatal("nothing should be delivered with every plane down")
	}
	if s.Lost != s.Accepted || s.Accepted != 20 {
		t.Fatalf("lost packets must be accounted: %+v", s)
	}
}

// TestFabricBlockPolicy checks Block makes Send wait out a full VOQ
// instead of dropping.
func TestFabricBlockPolicy(t *testing.T) {
	var delivered atomic.Int64
	f, err := New[int](Config{LogN: 2, Planes: 1, VOQDepth: 1, Policy: Block},
		func(Packet[int]) { delivered.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	// 50 packets through a depth-1 queue: every Send must eventually
	// succeed, so rejected stays 0.
	for i := 0; i < 50; i++ {
		if err := f.Send(Packet[int]{Src: 1, Dst: 2, Payload: i}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	f.Close()
	s := f.Stats()
	if s.Rejected != 0 || s.Delivered != 50 || delivered.Load() != 50 {
		t.Fatalf("block policy must deliver everything: %+v", s)
	}
}

// TestFabricSendValidation covers the rejection paths.
func TestFabricSendValidation(t *testing.T) {
	f, err := New[int](Config{LogN: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Send(Packet[int]{Src: -1, Dst: 0}); err == nil {
		t.Fatal("negative source must be rejected")
	}
	if err := f.Send(Packet[int]{Src: 0, Dst: 8}); err == nil {
		t.Fatal("out-of-range destination must be rejected")
	}
	f.Close()
	if err := f.Send(Packet[int]{Src: 0, Dst: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v, want ErrClosed", err)
	}
	f.Close() // idempotent
	if _, err := New[int](Config{LogN: 0}, nil); err == nil {
		t.Fatal("LogN=0 must be rejected")
	}
}

// TestFabricBlockedSenderUnblocksOnClose makes sure a sender parked on
// a full queue under Block is released with ErrClosed when the fabric
// shuts down.
func TestFabricBlockedSenderUnblocksOnClose(t *testing.T) {
	f, err := New[int](Config{LogN: 2, Planes: 1, VOQDepth: 1, Policy: Block}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.FailPlane(0); err != nil { // nothing drains
		t.Fatal(err)
	}
	// Fill the (0,1) VOQ, then park a second sender on it.
	if err := f.Send(Packet[int]{Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	res := make(chan error, 1)
	go func() { res <- f.Send(Packet[int]{Src: 0, Dst: 1}) }()
	f.Close()
	if err := <-res; err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked sender should see nil (raced the drain) or ErrClosed, got %v", err)
	}
}

// TestFabricSteadyStateAllocs pins "the steady state allocates
// nothing" on the packet path: once every one of the N² flows has
// carried a packet and the frame and node pools have warmed up, a
// closed loop of sends and deliveries allocates nothing per packet —
// not in Send, the VOQ store, the scheduler, the plane's FrameServer,
// nor the coalesced delivery.
func TestFabricSteadyStateAllocs(t *testing.T) {
	const (
		logN   = 8 // N = 256, the benchmark's size
		window = 256
	)
	var delivered atomic.Int64
	f, err := NewBatched[int](Config{LogN: logN, Planes: 1, Policy: Block},
		func(_ int, pkts []Packet[int]) { delivered.Add(int64(len(pkts))) })
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := f.N()
	sent := int64(0)
	// loop sends the given (src, dst) pairs window packets at a time,
	// each window waiting for its deliveries before the next is sent.
	loop := func(pairs [][2]int) {
		for i := 0; i < len(pairs); i += window {
			end := min(i+window, len(pairs))
			for _, p := range pairs[i:end] {
				if err := f.Send(Packet[int]{Src: p[0], Dst: p[1]}); err != nil {
					t.Fatal(err)
				}
			}
			sent += int64(end - i)
			for delivered.Load() < sent {
				runtime.Gosched()
			}
		}
	}
	// Every flow once, one cyclic shift per window so each window is a
	// permutation the scheduler can match in a frame or two.
	every := make([][2]int, 0, n*n)
	for shift := 0; shift < n; shift++ {
		for src := 0; src < n; src++ {
			every = append(every, [2]int{src, (src + shift) % n})
		}
	}
	rng := rand.New(rand.NewSource(13))
	random := make([][2]int, window)
	for i := range random {
		random[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	loop(every)
	for i := 0; i < 20; i++ {
		loop(random)
	}
	allocs := testing.AllocsPerRun(50, func() { loop(random) })
	if allocs != 0 {
		t.Fatalf("steady state allocates %.0f times per %d-packet window, want 0", allocs, window)
	}
}
