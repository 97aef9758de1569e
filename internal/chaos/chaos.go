// Package chaos is the adversarial test harness for the packet fabric:
// it runs declarative scenarios — fault churn, plane flap, hostile
// traffic shapes, VOQ saturation — against a real fabric.Fabric (live
// engines, live schedulers, live failover), checks the system's
// end-to-end invariants, and emits a machine-readable report.
//
// Everything is deterministic given Scenario.Seed: traffic is drawn
// from a seeded generator by a single offering goroutine, events fire
// at exact offered-packet counts (not wall-clock times), and diagnosis
// sessions use the same seed for their probe pools, so a failing
// report names the seed that reproduces it.
//
// The invariants are the contracts the rest of the repo promises:
// accepted packets are delivered exactly once (no loss while a healthy
// plane remains, no duplication ever), failover converges onto the
// surviving planes, plane health matches the injected fault state, and
// a diagnosis session against a damaged plane's probe oracle ranks the
// injected fault first.
package chaos

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/diagnose"
	"repro/internal/fabric"
	"repro/internal/journal"
	"repro/internal/journal/replay"
	"repro/internal/perm"
)

// EventKind names a scenario event.
type EventKind string

const (
	// EventInject freezes Event.Faults on Event.Plane (empty heals the
	// plane), taking it out of rotation while the damage lasts.
	EventInject EventKind = "inject"
	// EventFail administratively marks Event.Plane unhealthy.
	EventFail EventKind = "fail"
	// EventRestore repairs Event.Plane and returns it to rotation.
	EventRestore EventKind = "restore"
	// EventDiagnose runs a diagnosis session against Event.Plane's
	// probe oracle and records the result in the report.
	EventDiagnose EventKind = "diagnose"
)

// Event is one scripted action, triggered when the scenario has
// offered exactly AtPacket packets (deterministic, unlike timers).
// Events with AtPacket >= Packets fire after the last offer, before
// the fabric drains. Events sharing an AtPacket fire in listed order.
type Event struct {
	AtPacket int          `json:"at_packet"`
	Kind     EventKind    `json:"kind"`
	Plane    int          `json:"plane"`
	Faults   []core.Fault `json:"faults,omitempty"`
}

// Mix names a traffic shape; see traffic.go for the generators.
type Mix string

const (
	// MixUniform draws (src, dst) uniformly — the baseline load.
	MixUniform Mix = "uniform"
	// MixBursty re-aims the whole offered load at one hot output every
	// Burst packets — head-of-line pressure on single VOQ columns.
	MixBursty Mix = "bursty"
	// MixSkewed sends most packets into a small hot output set — the
	// sustained-imbalance shape.
	MixSkewed Mix = "skewed"
	// MixAdversarial offers whole random permutations port by port, so
	// frames assemble into permutations that defeat the plan cache and
	// regularly fall outside F(n).
	MixAdversarial Mix = "adversarial"
	// MixSaturate aims everything at output 0 — the VOQ saturation
	// shape, meant to be paired with Drop and a shallow VOQDepth.
	MixSaturate Mix = "saturate"
)

// Scenario declares one chaos run. The zero value of optional fields
// selects defaults noted per field.
type Scenario struct {
	Name string `json:"name"`
	// LogN and Planes shape the fabric. Required: LogN >= 1, Planes >= 1.
	LogN   int `json:"log_n"`
	Planes int `json:"planes"`
	// VOQDepth bounds each (src, dst) queue; 0 takes the fabric default.
	VOQDepth int `json:"voq_depth,omitempty"`
	// Drop selects tail-drop backpressure (fabric.DropNew) instead of
	// the default blocking Send.
	Drop bool `json:"drop,omitempty"`
	// Seed drives traffic, and the probe pools of diagnosis events.
	Seed int64 `json:"seed"`
	// Packets is how many packets the scenario offers.
	Packets int `json:"packets"`
	// Mix selects the traffic shape; empty means MixUniform.
	Mix Mix `json:"mix"`
	// Burst is MixBursty's run length (default 32).
	Burst int `json:"burst,omitempty"`
	// Hot is MixSkewed's hot-set size (default max(2, N/8)).
	Hot int `json:"hot,omitempty"`
	// Events is the scripted fault/flap/diagnose schedule.
	Events []Event `json:"events,omitempty"`
	// DiagnoseBudget overrides the probe budget of diagnosis events
	// (default: the prover's 2 log N + 2).
	DiagnoseBudget int `json:"diagnose_budget,omitempty"`
	// ExpectDrops asserts the scenario saturates: at least one offer
	// must be rejected by backpressure (and rejects must only happen
	// when it is set).
	ExpectDrops bool `json:"expect_drops,omitempty"`
	// Journal attaches a hash-chained admission journal to the fabric
	// and embeds its chain head and window bounds in the report, so a
	// failed scenario is replayable by sequence range.
	Journal bool `json:"journal,omitempty"`
	// AssertReplay (implies Journal) replays the full journaled window
	// after the run and asserts zero divergences.
	AssertReplay bool `json:"assert_replay,omitempty"`
}

// Invariant is one checked contract in a report.
type Invariant struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Diagnosis is the recorded outcome of one EventDiagnose.
type Diagnosis struct {
	AtPacket  int          `json:"at_packet"`
	Plane     int          `json:"plane"`
	Target    []core.Fault `json:"target,omitempty"` // faults injected at the time
	Probes    int          `json:"probes"`
	Rank      int          `json:"rank"` // competition rank of Target (0 if absent)
	Found     bool         `json:"found"`
	Healthy   bool         `json:"healthy"` // healthy hypothesis survived
	Converged bool         `json:"converged"`
	Survivors int          `json:"survivors"`
}

// PlaneEnd is one plane's state when the scenario finished.
type PlaneEnd struct {
	ID      int   `json:"id"`
	Healthy bool  `json:"healthy"`
	Faults  int   `json:"faults"`
	Frames  int64 `json:"frames"`
}

// JournalInfo is the journal slice of a report: the chain head and
// window bounds that make the scenario's traffic replayable by
// sequence range, plus the replay audit's outcome when one ran.
type JournalInfo struct {
	From    uint64 `json:"from"`
	To      uint64 `json:"to"`
	Records int64  `json:"records"`
	// Head is the chain-head digest (hex) after the run.
	Head    string `json:"head"`
	ChainOK bool   `json:"chain_ok"`
	// ReplayRan is true when the scenario asserted replay; the two
	// fields below are then meaningful.
	ReplayRan         bool   `json:"replay_ran"`
	ReplayDivergences int    `json:"replay_divergences"`
	FirstDivergentSeq uint64 `json:"first_divergent_seq,omitempty"`
}

// Report is the machine-readable outcome of one scenario run. It
// echoes the scenario (seed included) so a failure reproduces from the
// report alone.
type Report struct {
	Scenario   Scenario     `json:"scenario"`
	Offered    int          `json:"offered"`
	Accepted   int64        `json:"accepted"`
	Rejected   int64        `json:"rejected"`
	Delivered  int64        `json:"delivered"`
	Lost       int64        `json:"lost"`
	Failovers  int64        `json:"failovers"`
	Planes     []PlaneEnd   `json:"planes"`
	Diagnoses  []Diagnosis  `json:"diagnoses,omitempty"`
	Journal    *JournalInfo `json:"journal,omitempty"`
	Invariants []Invariant  `json:"invariants"`
	Passed     bool         `json:"passed"`
	ElapsedNs  int64        `json:"elapsed_ns"`
}

// Failures returns the invariants that did not hold.
func (r *Report) Failures() []Invariant {
	var out []Invariant
	for _, inv := range r.Invariants {
		if !inv.OK {
			out = append(out, inv)
		}
	}
	return out
}

// validate rejects scenarios Run cannot execute.
func (sc Scenario) validate() error {
	if sc.LogN < 1 {
		return fmt.Errorf("chaos: scenario %q: LogN must be >= 1, got %d", sc.Name, sc.LogN)
	}
	if sc.Planes < 1 {
		return fmt.Errorf("chaos: scenario %q: Planes must be >= 1, got %d", sc.Name, sc.Planes)
	}
	if sc.Packets < 0 {
		return fmt.Errorf("chaos: scenario %q: Packets must be >= 0, got %d", sc.Name, sc.Packets)
	}
	switch sc.Mix {
	case "", MixUniform, MixBursty, MixSkewed, MixAdversarial, MixSaturate:
	default:
		return fmt.Errorf("chaos: scenario %q: unknown mix %q", sc.Name, sc.Mix)
	}
	net := core.New(sc.LogN)
	for _, ev := range sc.Events {
		if ev.Plane < 0 || ev.Plane >= sc.Planes {
			return fmt.Errorf("chaos: scenario %q: event plane %d out of range [0,%d)", sc.Name, ev.Plane, sc.Planes)
		}
		switch ev.Kind {
		case EventInject:
			for _, f := range ev.Faults {
				if err := net.CheckFault(f); err != nil {
					return fmt.Errorf("chaos: scenario %q: %w", sc.Name, err)
				}
			}
		case EventFail, EventRestore, EventDiagnose:
		default:
			return fmt.Errorf("chaos: scenario %q: unknown event kind %q", sc.Name, ev.Kind)
		}
	}
	return nil
}

// Run executes one scenario and returns its report. An error means the
// scenario could not be executed (bad declaration, fabric construction
// failure); invariant violations are reported in Report.Passed and
// Report.Invariants, not as errors.
func Run(sc Scenario) (*Report, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	n := 1 << sc.LogN

	// counts[id] tracks deliveries of offered packet id; the offering
	// side is a single goroutine, delivery callbacks are concurrent.
	counts := make([]atomic.Int32, sc.Packets)
	accepted := make([]bool, sc.Packets)
	policy := fabric.Block
	if sc.Drop {
		policy = fabric.DropNew
	}
	var jr *journal.Journal
	var jw *journal.Writer
	if sc.Journal || sc.AssertReplay {
		j, err := journal.New(journal.Config{})
		if err != nil {
			return nil, err
		}
		jr, jw = j, j.Writer()
	}
	fab, err := fabric.New[int](fabric.Config{
		LogN:     sc.LogN,
		Planes:   sc.Planes,
		VOQDepth: sc.VOQDepth,
		Policy:   policy,
		Journal:  jw,
	}, func(p fabric.Packet[int]) {
		counts[p.Payload].Add(1)
	})
	if err != nil {
		return nil, err
	}
	if jr != nil {
		jr.SetCheckpointSource(fab.JournalCheckpoint)
	}

	// Shadow state: what health each plane should report, and which
	// faults a diagnosis event must localize.
	expectHealthy := make([]bool, sc.Planes)
	for i := range expectHealthy {
		expectHealthy[i] = true
	}
	shadowFaults := make([][]core.Fault, sc.Planes)

	events := append([]Event(nil), sc.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].AtPacket < events[j].AtPacket })
	var diagnoses []Diagnosis
	nextEvent := 0
	fire := func(offered int) error {
		for nextEvent < len(events) && events[nextEvent].AtPacket <= offered {
			ev := events[nextEvent]
			nextEvent++
			switch ev.Kind {
			case EventInject:
				if err := fab.InjectFaults(ev.Plane, ev.Faults); err != nil {
					return err
				}
				shadowFaults[ev.Plane] = append([]core.Fault(nil), ev.Faults...)
				expectHealthy[ev.Plane] = len(ev.Faults) == 0
			case EventFail:
				if err := fab.FailPlane(ev.Plane); err != nil {
					return err
				}
				expectHealthy[ev.Plane] = false
			case EventRestore:
				if err := fab.RestorePlane(ev.Plane); err != nil {
					return err
				}
				shadowFaults[ev.Plane] = nil
				expectHealthy[ev.Plane] = true
			case EventDiagnose:
				d, err := runDiagnosis(sc, fab, ev.Plane, shadowFaults[ev.Plane])
				if err != nil {
					return err
				}
				d.AtPacket = ev.AtPacket
				diagnoses = append(diagnoses, d)
			}
		}
		return nil
	}

	gen := newTraffic(sc, n)
	runErr := func() error {
		for i := 0; i < sc.Packets; i++ {
			if err := fire(i); err != nil {
				return err
			}
			src, dst := gen.next()
			err := fab.Send(fabric.Packet[int]{Src: src, Dst: dst, Payload: i})
			switch {
			case err == nil:
				accepted[i] = true
			case errors.Is(err, fabric.ErrBackpressure):
				// Tail drop under the scenario's declared saturation.
			default:
				return fmt.Errorf("chaos: scenario %q: offer %d: %w", sc.Name, i, err)
			}
		}
		return fire(sc.Packets)
	}()
	fab.Close()
	if runErr != nil {
		return nil, runErr
	}

	stats := fab.Stats()
	rep := &Report{
		Scenario:  sc,
		Offered:   sc.Packets,
		Accepted:  stats.Accepted,
		Rejected:  stats.Rejected,
		Delivered: stats.Delivered,
		Lost:      stats.Lost,
		Failovers: stats.Failovers,
		Diagnoses: diagnoses,
		ElapsedNs: time.Since(start).Nanoseconds(),
	}
	for _, ps := range stats.Planes {
		rep.Planes = append(rep.Planes, PlaneEnd{ID: ps.ID, Healthy: ps.Healthy, Faults: ps.Faults, Frames: ps.Frames})
	}
	rep.check(sc, counts, accepted, expectHealthy, stats)
	if jr != nil {
		rep.auditJournal(sc, jr)
		jr.Close()
	}
	return rep, nil
}

// auditJournal verifies the run's hash chain, embeds the chain head and
// window bounds in the report, and — when the scenario asserts replay —
// re-executes the full window and checks for divergences. Appended
// invariants fold into Passed like any other.
func (rep *Report) auditJournal(sc Scenario, jr *journal.Journal) {
	from, to, ok := jr.Bounds()
	info := &JournalInfo{From: from, To: to}
	rep.Journal = info
	add := func(name string, ok bool, detail string) {
		if ok {
			detail = ""
		}
		rep.Invariants = append(rep.Invariants, Invariant{Name: name, OK: ok, Detail: detail})
		rep.Passed = rep.Passed && ok
	}
	if !ok {
		// An empty journal on a scenario that offered traffic means the
		// admission hooks never fired.
		add("journal_chain_intact", sc.Packets == 0, "journal is empty after a traffic-bearing run")
		return
	}
	vr := jr.Verify(from, to)
	info.Records = int64(vr.Records)
	info.Head = vr.Head
	info.ChainOK = vr.OK
	add("journal_chain_intact", vr.OK, vr.Detail)
	if !sc.AssertReplay {
		return
	}
	info.ReplayRan = true
	audit, err := replay.Window(replay.Config{LogN: sc.LogN, Planes: sc.Planes}, jr, from, to)
	if err != nil {
		add("replay_no_divergence", false, err.Error())
		return
	}
	info.ReplayDivergences = len(audit.Divergences)
	info.FirstDivergentSeq = audit.FirstDivergentSeq
	detail := ""
	if len(audit.Divergences) > 0 {
		detail = fmt.Sprintf("first divergence at seq %d: %s",
			audit.FirstDivergentSeq, audit.Divergences[0].Detail)
	}
	add("replay_no_divergence", audit.Clean(), detail)
}

// runDiagnosis runs one session against plane's probe oracle. target
// is the shadow fault set the session must localize (nil means the
// plane should diagnose healthy).
func runDiagnosis(sc Scenario, fab *fabric.Fabric[int], plane int, target []core.Fault) (Diagnosis, error) {
	maxFaults := 1
	if len(target) > 1 {
		maxFaults = 2
	}
	prover, err := diagnose.New(diagnose.Config{
		Net:       core.New(sc.LogN),
		MaxFaults: maxFaults,
		Budget:    sc.DiagnoseBudget,
		Seed:      sc.Seed,
	})
	if err != nil {
		return Diagnosis{}, err
	}
	rep, err := prover.Diagnose(diagnose.OracleFunc(func(d perm.Perm) (perm.Perm, error) {
		return fab.ProbePlane(plane, d)
	}))
	if err != nil {
		return Diagnosis{}, err
	}
	rank, found := rep.RankOf(target)
	return Diagnosis{
		Plane:     plane,
		Target:    append([]core.Fault(nil), target...),
		Probes:    rep.Probes,
		Rank:      rank,
		Found:     found,
		Healthy:   rep.Healthy,
		Converged: rep.Converged,
		Survivors: rep.Survivors,
	}, nil
}

// check evaluates every invariant into rep.Invariants and sets Passed.
func (rep *Report) check(sc Scenario, counts []atomic.Int32, accepted []bool, expectHealthy []bool, stats fabric.Snapshot) {
	add := func(name string, ok bool, detail string) {
		if ok {
			detail = ""
		}
		rep.Invariants = append(rep.Invariants, Invariant{Name: name, OK: ok, Detail: detail})
	}

	// Exactly-once: every accepted packet delivered exactly once, every
	// rejected packet never delivered.
	bad := ""
	for i := range counts {
		c := int(counts[i].Load())
		want := 0
		if accepted[i] {
			want = 1
		}
		if c != want {
			bad = fmt.Sprintf("packet %d delivered %d times (accepted=%v)", i, c, accepted[i])
			break
		}
	}
	add("exactly_once", bad == "", bad)
	add("no_loss", stats.Lost == 0, fmt.Sprintf("%d accepted packets lost", stats.Lost))
	add("books_balance", stats.Delivered+stats.Lost == stats.Accepted,
		fmt.Sprintf("accepted %d != delivered %d + lost %d", stats.Accepted, stats.Delivered, stats.Lost))

	// Backpressure only when declared, and declared saturation must bite.
	if sc.ExpectDrops {
		add("saturation_drops", stats.Rejected > 0, "scenario expected tail drops, none happened")
	} else {
		add("no_drops", stats.Rejected == 0, fmt.Sprintf("%d packets rejected in a non-saturating scenario", stats.Rejected))
	}

	// Plane health must match the injected/administrative state.
	bad = ""
	for i, ps := range rep.Planes {
		if ps.Healthy != expectHealthy[i] {
			bad = fmt.Sprintf("plane %d healthy=%v, injected state implies %v", i, ps.Healthy, expectHealthy[i])
			break
		}
	}
	add("health_matches_faults", bad == "", bad)

	// Failover convergence: whenever a plane was down, the survivors
	// carried the load — some healthy plane served frames.
	if stats.Accepted > 0 {
		served := int64(0)
		for i, ps := range rep.Planes {
			if expectHealthy[i] {
				served += ps.Frames
			}
		}
		anyHealthy := false
		for _, h := range expectHealthy {
			anyHealthy = anyHealthy || h
		}
		if anyHealthy {
			add("failover_converged", served > 0, "no healthy plane served any frame")
		}
	}

	// Diagnosis: the injected fault set must never be out-ranked, and a
	// healthy plane must diagnose healthy.
	bad = ""
	for _, d := range rep.Diagnoses {
		switch {
		case len(d.Target) == 0:
			if !d.Healthy || d.Rank != 1 {
				bad = fmt.Sprintf("plane %d: healthy plane diagnosed faulty (rank %d, healthy %v)", d.Plane, d.Rank, d.Healthy)
			}
		default:
			if !d.Found || d.Rank != 1 {
				bad = fmt.Sprintf("plane %d: injected fault ranked %d (found %v)", d.Plane, d.Rank, d.Found)
			}
		}
		if bad != "" {
			break
		}
	}
	if len(rep.Diagnoses) > 0 {
		add("diagnosis_localizes", bad == "", bad)
	}

	rep.Passed = true
	for _, inv := range rep.Invariants {
		rep.Passed = rep.Passed && inv.OK
	}
}
