package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/engine"
	"repro/internal/perm"
)

const (
	routeLogN = 10 // N = 1024, benesd's default
	hotPlans  = 256
	coldShare = 0.05
	// coldPool seeded cold permutations are replayed cyclically. Between
	// two uses of one, the other 2047 and their sub-plans pass through
	// the 1024-plan cache, so every use is a miss again.
	coldPool   = 2048
	routePicks = 1 << 16
)

// routeInputs is route-mix's traffic: the hot set the engine prewarms,
// the cold pool, which of them each request routes, and the payload.
type routeInputs struct {
	hot, cold []perm.Perm
	picks     []int32 // index into hot, or -1 for the next cold permutation
	data      []int   // non-identity payload with distinct elements
}

// genRoutes draws the hot set (¼ BPC, ¼ F(n), ½ uniformly random, so
// mostly outside F(n)), the cold pool (random, none in F(n)), the 95/5
// hot/cold request mix and the payload from seed.
func genRoutes(seed int64) *routeInputs {
	rng := rand.New(rand.NewSource(seed))
	n := 1 << routeLogN
	in := &routeInputs{}
	for i := 0; i < hotPlans; i++ {
		switch {
		case i < hotPlans/4:
			in.hot = append(in.hot, perm.RandomBPC(routeLogN, rng).Perm())
		case i < hotPlans/2:
			in.hot = append(in.hot, perm.RandomF(routeLogN, rng))
		default:
			in.hot = append(in.hot, perm.Random(n, rng))
		}
	}
	for len(in.cold) < coldPool {
		if p := perm.Random(n, rng); !perm.InF(p) {
			in.cold = append(in.cold, p)
		}
	}
	in.picks = make([]int32, routePicks)
	for i := range in.picks {
		in.picks[i] = -1
		if rng.Float64() >= coldShare {
			in.picks[i] = int32(rng.Intn(hotPlans))
		}
	}
	in.data = rng.Perm(n)
	for i := range in.data {
		in.data[i] += n
	}
	return in
}

// newRouteEngine builds the engine as benesd does by default (parallel
// cold setup with sub-plan memo, default cache) and prewarms the hot set.
func newRouteEngine(in *routeInputs) (*engine.Engine[int], error) {
	eng, err := engine.New[int](engine.Config{LogN: routeLogN, ParallelSetup: true, SetupMemo: true})
	if err != nil {
		return nil, err
	}
	for _, d := range in.hot {
		if _, _, err := eng.Prewarm(d); err != nil {
			eng.Close()
			return nil, fmt.Errorf("prewarm: %w", err)
		}
	}
	return eng, nil
}

// routeLoop keeps two requests in flight through Submit: each response
// frees its slot for the next request of the seeded sequence.
type routeLoop struct {
	eng       *engine.Engine[int]
	in        *routeInputs
	seq, cold int
	attempted int64
	failed    int64
	firstErr  error
}

// routeSlot is one request in flight.
type routeSlot struct {
	ch     <-chan engine.Response[int]
	dest   perm.Perm
	seq    int
	t0, t1 int64 // Submit called, Submit returned
}

func (rl *routeLoop) submit(s *routeSlot, ph *phase) {
	pick := rl.in.picks[rl.seq%len(rl.in.picks)]
	if pick >= 0 {
		s.dest = rl.in.hot[pick]
	} else {
		s.dest = rl.in.cold[rl.cold%len(rl.in.cold)]
		rl.cold++
	}
	s.seq = rl.seq
	rl.seq++
	rl.attempted++
	s.t0 = now()
	s.ch = rl.eng.Submit(engine.Request[int]{Dest: s.dest, Data: rl.in.data})
	s.t1 = now()
	if ph.traced {
		ph.sendNs += s.t1 - s.t0
		ph.sends++
	}
}

// measure runs ph for d, split into count windows. A traced phase
// records, for every route, the route span (Submit called to response
// received), its submit span and its receive span (the wait in which
// the response arrived): routes carry no program spans, so tracing all
// of them costs a few subtractions and keeps the budget's population
// the same as the engine histograms'.
func (rl *routeLoop) measure(ph *phase, d time.Duration, count int) *windows {
	t0 := now()
	end := t0 + d.Nanoseconds()
	ph.win = newWindows(t0, d.Nanoseconds(), count)
	if ph.traced {
		ph.budget = newBudget("route", "submit", "receive")
	}
	n := int64(len(rl.in.data))
	var slots [2]routeSlot // the two requests in flight
	for i := range slots {
		rl.submit(&slots[i], ph)
	}
	for active := len(slots); active > 0; {
		w0 := now()
		var resp engine.Response[int]
		var s *routeSlot
		select {
		case resp = <-slots[0].ch:
			s = &slots[0]
		case resp = <-slots[1].ch:
			s = &slots[1]
		}
		done := now()
		ph.blockedNs += done - w0
		err := resp.Err
		if err == nil {
			err = checkRoute(s.dest, rl.in.data, resp.Data)
		}
		if err != nil {
			rl.failed++
			if rl.firstErr == nil {
				rl.firstErr = fmt.Errorf("route %d: %w", s.seq, err)
			}
		}
		if w := ph.win.at(done); w != nil {
			w.routes++
			w.ops += n
			w.lat.add(done - s.t0)
		}
		if ph.traced {
			ph.deliverNs += now() - done
			ph.callbacks++
			seq := s.seq
			ph.budget.add(func() string { return fmt.Sprintf("route-%d", seq) }, s.t0, done,
				[2]int64{s.t0, s.t1}, [2]int64{max(w0, s.t1), done})
		}
		if done < end {
			rl.submit(s, ph)
		} else {
			s.ch = nil // a nil channel never wins the select
			active--
		}
	}
	return ph.win
}

// runRoutes runs route-mix: setupRuns timed engine builds with the hot
// set prewarmed, then the measured phase or, traced, an untraced and a
// traced half.
func runRoutes(o options) (*outcome, error) {
	in := genRoutes(o.seed)
	out := &outcome{n: 1 << routeLogN, window: 2, layers: map[string]float64{}}
	var eng *engine.Engine[int]
	for k := 0; k < setupRuns; k++ {
		if eng != nil {
			eng.Close()
			debug.FreeOSMemory() // every timed set-up starts from a cold heap
		}
		t := time.Now()
		e, err := newRouteEngine(in)
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(t).Seconds())
		eng = e
	}
	defer eng.Close()
	rl := &routeLoop{eng: eng, in: in}
	defer func() {
		out.add(rl.attempted, rl.failed)
		out.note(rl.firstErr)
	}()

	if !o.traced {
		out.endToEnd(rl.measure(&phase{}, o.dur, endToEndWindows))
		return out, nil
	}
	plain := rl.measure(&phase{}, o.dur/2, traceWindows)
	e0 := eng.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph := &phase{traced: true}
	ws := rl.measure(ph, o.dur/2, traceWindows)
	runtime.ReadMemStats(&m1)
	e1 := eng.Stats()

	routes := float64(e1.Requests - e0.Requests)
	out.engineLayers(e0, e1)
	out.layers["engine.submit_ns"] = ratio(float64(ph.sendNs), float64(ph.sends))
	out.layers["engine.hit_ratio"] = ratio(float64(e1.Hits-e0.Hits), float64(e1.Hits-e0.Hits+e1.Misses-e0.Misses))
	out.layers["engine.fallback_ratio"] = ratio(float64(e1.Fallbacks-e0.Fallbacks), routes)
	out.layers["engine.subplan_hit_ratio"] = ratio(float64(e1.SubplanHits-e0.SubplanHits),
		float64(e1.SubplanHits-e0.SubplanHits+e1.SubplanMisses-e0.SubplanMisses))
	out.layers["engine.evictions"] = float64(e1.Evictions - e0.Evictions)
	out.runtimeLayers(m0, m1, routes)
	out.benchLayers(ph, ws, plain)

	b := ph.budget
	out.budget = b
	out.layers["trace.sojourn_us"] = b.sojournUs()
	out.layers["trace.send_us"] = b.meanUs(0)
	out.layers["trace.deliver_us"] = b.meanUs(1)
	out.layers["engine.unattributed_us"] = b.sojournUs() - out.layers["engine.submit_ns"]/1e3 -
		out.layers["engine.wait_us"] - out.layers["engine.plan_us"] - out.layers["engine.apply_us"]
	return out, nil
}
