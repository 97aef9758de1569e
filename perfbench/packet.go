package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/journal"
	"repro/internal/obs"
)

const (
	packetLogN = 8 // N = 256 ports
	packetN    = 1 << packetLogN
	// packetWindow is the number of packets in flight. A deeper window
	// lets the matching depend on goroutine scheduling: at 2048 in
	// flight frame fill ranged 0.34–0.49 and p99 4.9–7.7 ms from run to
	// run, at 256 fill held within 0.213–0.223.
	packetWindow = 256
	// steadyInputs seeded (src, dst) pairs are generated before the
	// clock starts and replayed cyclically by the steady phase.
	steadyInputs = 1 << 21
	// seqCapacity bounds the packets one fabric may carry in a run:
	// about 40M packets/s over 25 s. The delivered bitmap grows with the
	// packets actually sent, 128 KiB per 2^20.
	seqCapacity = 1 << 30
	// sendRing send timestamps are kept; a packet still in flight when
	// its slot comes round again stops the run.
	sendRing = 1 << 20
	// traceEvery: a traced phase attaches a trace to every 64th packet,
	// up to maxTraced traces.
	traceEvery = 64
	maxTraced  = 1 << 17
	// auditedJournalCap is the journal's memory ring on audited, as
	// benesd -journal -journal-cap 8192. With benesd's default of 65536
	// records the live heap was still growing 15 s into a run, so peak
	// RSS measured how far it had grown and where the collector's cycle
	// stood when the run ended. With 8192 it holds steady after the
	// first seconds.
	auditedJournalCap = 8192
	// settleBatch packets are sent between two checks of settle's
	// condition; settleMax bounds it (it takes about 3 s).
	settleBatch = 1 << 14
	settleMax   = 5 * time.Second
)

// pair is one packet's input and output port.
type pair struct{ src, dst uint16 }

// packetSpec is what distinguishes the packet workloads.
type packetSpec struct {
	hot     int     // number of hot outputs
	hotFrac float64 // share of packets sent to a hot output
	audited bool    // journal (auditedJournalCap memory ring, no spill) and flight recorder on
}

// packetInputs draws the steady-phase traffic: uniform random sources,
// and destinations uniform except that a hotFrac share goes to one of
// hot seeded outputs.
func packetInputs(seed int64, n int, s packetSpec) []pair {
	rng := rand.New(rand.NewSource(seed))
	hot := rng.Perm(n)[:s.hot]
	in := make([]pair, steadyInputs)
	for i := range in {
		dst := rng.Intn(n)
		if s.hot > 0 && rng.Float64() < s.hotFrac {
			dst = hot[rng.Intn(s.hot)]
		}
		in[i] = pair{src: uint16(rng.Intn(n)), dst: uint16(dst)}
	}
	return in
}

// phase is one stretch of a closed loop. Sender fields are written by
// the sending goroutine, delivery fields by the fabric's router; the
// sender reads the latter only after every packet of the phase has
// been delivered, which the loop's delivered counter orders.
type phase struct {
	win    *windows // nil during warm-up
	traced bool

	// sender side
	blockedNs int64 // waiting for a free slot in the window
	sendNs    int64 // inside Send, traced phases only
	sends     int64
	attached  int64 // traces attached

	// delivery side
	deliverNs int64 // inside the delivery callback, traced phases only
	callbacks int64
	delivered []tracedDelivery // traced packets, attributed after the phase
	budget    *budget          // traced routes, attributed as they complete
}

// tracedDelivery is a traced packet as the delivery callback saw it;
// its spans are read once the phase has drained, when the send span
// is certain to be recorded.
type tracedDelivery struct {
	tr       *obs.Trace
	cb0, end int64 // callback entry, this packet's check done
}

// loop drives one fabric in a closed loop: at most packetWindow packets
// are in flight, and each delivery frees a slot for the next packet of
// the seeded sequence. One goroutine sends.
type loop struct {
	fab    *fabric.Fabric[int]
	jrn    *journal.Journal // nil unless audited
	steady []pair
	chk    *checker
	sendAt []int64

	sent     int // packets accepted (sender only)
	rejected int64

	credits atomic.Int64
	done    atomic.Int64 // packets delivered
	notify  chan struct{}
	ph      atomic.Pointer[phase]
}

// newLoop builds the fabric (and, audited, the journal it writes) and
// warms it up: every (src, dst) pair is sent once, as N cyclic shifts,
// which allocates all N² lazily built VOQ rings.
func newLoop(spec packetSpec, steady []pair) (*loop, error) {
	l := &loop{steady: steady, sendAt: make([]int64, sendRing), notify: make(chan struct{}, 1)}
	l.chk = newChecker(seqCapacity, l.pair)
	cfg := fabric.Config{LogN: packetLogN, Planes: 1, Policy: fabric.Block}
	if spec.audited {
		j, err := journal.New(journal.Config{Cap: auditedJournalCap})
		if err != nil {
			return nil, err
		}
		l.jrn = j
		cfg.Journal = j.Writer()
		cfg.Record = true
	}
	f, err := fabric.NewBatched(cfg, l.deliver)
	if err != nil {
		if l.jrn != nil {
			l.jrn.Close()
		}
		return nil, err
	}
	l.fab = f
	if l.jrn != nil {
		l.jrn.SetCheckpointSource(f.JournalCheckpoint)
	}
	err = l.drive(&phase{}, func(int64) bool { return l.sent < packetN*packetN })
	return l, err
}

// pair returns the ports of packet seq: the warm-up shifts first, then
// the seeded steady sequence.
func (l *loop) pair(seq int) pair {
	if seq >= packetN*packetN {
		return l.steady[(seq-packetN*packetN)&(steadyInputs-1)]
	}
	src := seq % packetN
	return pair{src: uint16(src), dst: uint16((src + seq/packetN) % packetN)}
}

// drive sends packets while more(now) holds, keeping the window full,
// then waits until every accepted packet has been delivered.
func (l *loop) drive(ph *phase, more func(t int64) bool) error {
	l.ph.Store(ph)
	l.credits.Store(packetWindow)
	var err error
	for sending := true; sending; {
		c := l.credits.Swap(0)
		if c == 0 {
			t := now()
			<-l.notify
			ph.blockedNs += now() - t
			continue
		}
		for ; c > 0; c-- {
			t := now()
			if !more(t) {
				sending = false
				break
			}
			if err = l.send(ph, t); err != nil {
				sending = false
				break
			}
		}
	}
	for l.done.Load() < int64(l.sent) {
		<-l.notify
	}
	return err
}

func (l *loop) send(ph *phase, t int64) error {
	seq := l.sent
	if seq >= l.chk.capacity() {
		return errors.New("sequence space exhausted")
	}
	if seq >= len(l.sendAt) && !l.chk.isDelivered(seq-len(l.sendAt)) {
		return fmt.Errorf("packet %d still in flight after %d later sends", seq-len(l.sendAt), len(l.sendAt))
	}
	p := l.pair(seq)
	pkt := fabric.Packet[int]{Src: int(p.src), Dst: int(p.dst), Payload: seq}
	if ph.traced && seq%traceEvery == 0 && ph.attached < maxTraced {
		pkt.Trace = obs.NewTrace("packet")
		ph.attached++
		t = now()
	}
	l.sendAt[seq&(sendRing-1)] = t
	err := l.fab.Send(pkt)
	if ph.traced {
		t1 := now()
		ph.sendNs += t1 - t
		ph.sends++
		if pkt.Trace != nil {
			pkt.Trace.SpanDur("send", at(t), time.Duration(t1-t), "")
		}
	}
	if err != nil {
		l.rejected++
		return fmt.Errorf("send packet %d: %w", seq, err)
	}
	l.sent++
	return nil
}

// deliver is the fabric's coalesced delivery callback: one call per
// verified frame, from the plane's router goroutine.
func (l *loop) deliver(_ int, pkts []fabric.Packet[int]) {
	cb0 := now()
	ph := l.ph.Load()
	var w *window
	if ph.win != nil {
		if w = ph.win.at(cb0); w != nil {
			w.routes++
			w.ops += int64(len(pkts))
		}
	}
	for _, p := range pkts {
		l.chk.deliver(p.Payload, p.Src, p.Dst)
		if w != nil {
			w.lat.add(cb0 - l.sendAt[p.Payload&(sendRing-1)])
		}
		if p.Trace != nil {
			ph.delivered = append(ph.delivered, tracedDelivery{tr: p.Trace, cb0: cb0, end: now()})
		}
	}
	if ph.traced {
		ph.deliverNs += now() - cb0
		ph.callbacks++
	}
	l.done.Add(int64(len(pkts)))
	l.credits.Add(int64(len(pkts)))
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

// close drains and stops the fabric, then audits every packet the loop
// sent. It returns the operations attempted and failed.
func (l *loop) close() (attempted, failed int64) {
	l.fab.Close()
	if l.jrn != nil {
		l.jrn.Close()
	}
	st := l.fab.Stats()
	missing, phantom := l.chk.audit(l.sent)
	attempted = int64(l.sent) + l.rejected
	failed = l.rejected + l.chk.misdelivered.Load() + l.chk.duplicates.Load() + missing + phantom + st.Lost
	return attempted, failed
}

// layerSample is the program's own counters at one instant.
type layerSample struct {
	fab fabric.Snapshot
	jrn journalSample
	mem runtime.MemStats
}

type journalSample struct {
	appended, bytes int64
	append          obs.HistogramSnapshot
}

func (l *loop) sample() layerSample {
	var s layerSample
	s.fab = l.fab.Stats()
	if l.jrn != nil {
		m := l.jrn.Metrics()
		s.jrn = journalSample{appended: m.Appended(), bytes: m.Bytes(), append: m.Append.Snapshot()}
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// runPacket runs one packet workload: setupRuns timed set-ups, then
// either the measured steady phase or, traced, an untraced and a traced
// half for the per-layer budget.
func runPacket(spec packetSpec, o options) (*outcome, error) {
	out := &outcome{n: packetN, window: packetWindow, planes: 1, layers: map[string]float64{}}
	steady := packetInputs(o.seed, packetN, spec)
	var l *loop
	for k := 0; k < setupRuns; k++ {
		if l != nil {
			out.add(l.close())
			l = nil
			// Hand the previous VOQ grid back to the OS, so every timed
			// set-up starts from the same cold heap as the first.
			debug.FreeOSMemory()
		}
		t := time.Now()
		nl, err := newLoop(spec, steady)
		if nl == nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(t).Seconds())
		l = nl
		if err != nil {
			out.note(err)
			break
		}
	}
	defer func() { out.add(l.close()) }()

	if l.jrn != nil {
		out.note(l.settle())
	}

	if !o.traced {
		ws, err := l.measure(&phase{}, o.dur, endToEndWindows)
		out.note(err)
		out.endToEnd(ws)
		return out, nil
	}
	plain, err := l.measure(&phase{}, o.dur/2, traceWindows)
	out.note(err)
	s0 := l.sample()
	ph := &phase{traced: true}
	ws, err := l.measure(ph, o.dur/2, traceWindows)
	out.note(err)
	s1 := l.sample()
	out.packetLayers(ph, s0, s1, ws, plain)
	out.packetBudget(ph)
	return out, nil
}

// settle drives unmeasured traffic on an audited loop until the
// journal's ring has wrapped and the collector has since finished a
// cycle, or for settleMax if that takes longer. Until then records land
// in newly allocated segments and the heap grows into memory the
// process has not touched yet: the first seconds of an audited run
// showed a p99 about 30% above the rest.
func (l *loop) settle() error {
	gc, end := uint64(0), now()+settleMax.Nanoseconds()
	for wrapped := false; now() < end; {
		target := l.sent + settleBatch
		if err := l.drive(&phase{}, func(int64) bool { return l.sent < target }); err != nil {
			return err
		}
		switch {
		case !wrapped:
			if wrapped = l.jrn.Metrics().Appended() >= auditedJournalCap; wrapped {
				gc = gcCycles()
			}
		case gcCycles() > gc:
			return nil
		}
	}
	return nil
}

func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// measure runs ph for d, split into count windows.
func (l *loop) measure(ph *phase, d time.Duration, count int) (*windows, error) {
	t0 := now()
	end := t0 + d.Nanoseconds()
	ph.win = newWindows(t0, d.Nanoseconds(), count)
	err := l.drive(ph, func(t int64) bool { return t < end })
	if ph.win.samples() == 0 && err == nil {
		err = errors.New("no packet delivered in the measured phase")
	}
	return ph.win, err
}
