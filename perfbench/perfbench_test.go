package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/perm"
)

// contract is the part of BENCHMARK.json the benchmark's tables must
// agree with.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestContractMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range c.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark runs %s", names, workloadNames())
	}
	check := func(kind string, defs []metricDef, got map[string]string) {
		t.Helper()
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(defs))
		}
		for _, d := range defs {
			if u, ok := got[d.name]; !ok || u != d.unit {
				t.Errorf("%s: metric %q unit %q, BENCHMARK.json has %q (listed %v)", kind, d.name, d.unit, u, ok)
			}
		}
	}
	e2e := map[string]string{}
	for _, m := range c.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layers := map[string]string{}
	for _, m := range c.PerLayer {
		layers[m.Name] = m.Unit
	}
	check("end_to_end", endToEndMetrics, e2e)
	check("per_layer", perLayerMetrics, layers)
}

// TestShortRunsEmitEveryMetric runs every workload briefly, untraced and
// traced, and checks the result carries every metric with its unit and
// that the run's checks passed.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 256-port fabric per packet workload")
	}
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			runtime.GC() // drop the previous run's VOQ grid first
			o := options{seed: 7, dur: 400 * time.Millisecond, traced: traced}
			res, meta, err := run(name, o, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d errors=%v",
					name, traced, res.Correct, res.Attempted, res.Failed, meta["errors"])
			}
			defs := endToEndMetrics
			if traced {
				defs = perLayerMetrics
				if meta["traced_items"].(int64) == 0 {
					t.Errorf("%s: traced run traced nothing", name)
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s: metric %s unit %q, want %q", name, d.name, m.Unit, d.unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

func TestCheckerRejectsBadDeliveries(t *testing.T) {
	want := func(seq int) pair { return pair{src: uint16(seq % 8), dst: uint16(7 - seq%8)} }
	c := newChecker(128, want)
	for seq := 0; seq < 4; seq++ {
		if seq == 2 {
			continue // never delivered
		}
		if !c.deliver(seq, seq, 7-seq) {
			t.Fatalf("good delivery of packet %d rejected", seq)
		}
	}
	if c.deliver(4, 4, 4) {
		t.Error("packet 4 delivered to port 4, want 3: accepted")
	}
	if c.deliver(5, 0, 2) {
		t.Error("packet 5 delivered from input 0, want 5: accepted")
	}
	if c.deliver(1, 1, 6) {
		t.Error("second delivery of packet 1 accepted")
	}
	if c.deliver(999, 7, 0) {
		t.Error("delivery of a number beyond the checker's range accepted")
	}
	if !c.deliver(9, 1, 6) {
		t.Error("good delivery of packet 9 rejected")
	}
	if got := c.misdelivered.Load(); got != 3 {
		t.Errorf("misdelivered = %d, want 3", got)
	}
	if got := c.duplicates.Load(); got != 1 {
		t.Errorf("duplicates = %d, want 1", got)
	}
	// Packets 0..5 were sent: 2, 4 and 5 never arrived intact, and 9 was
	// never sent.
	missing, phantom := c.audit(6)
	if missing != 3 || phantom != 1 {
		t.Errorf("audit(6) = missing %d, phantom %d; want 3, 1", missing, phantom)
	}
}

// TestCheckerAuditsAcrossChunks checks the audit where the bitmap spans
// chunks, one of them never allocated.
func TestCheckerAuditsAcrossChunks(t *testing.T) {
	want := func(int) pair { return pair{} }
	c := newChecker(3*chunkBits, want)
	for seq := 0; seq < chunkBits; seq++ {
		if seq != 7 {
			c.deliver(seq, 0, 0)
		}
	}
	c.deliver(2*chunkBits+1, 0, 0) // never sent
	// Sent: all of chunk 0 (7 lost) and the first 5 of chunk 1 (none arrived).
	missing, phantom := c.audit(chunkBits + 5)
	if missing != 6 || phantom != 1 {
		t.Errorf("audit = missing %d, phantom %d; want 6, 1", missing, phantom)
	}
}

// TestDeliveryCallbackCountsFailures hand-feeds the fabric's delivery
// callback: warm-up packet seq travels seq%N -> seq%N in the first shift.
func TestDeliveryCallbackCountsFailures(t *testing.T) {
	l := &loop{sendAt: make([]int64, sendRing), notify: make(chan struct{}, 1)}
	l.chk = newChecker(1024, l.pair)
	l.ph.Store(&phase{})
	l.deliver(0, []fabric.Packet[int]{
		{Src: 0, Dst: 0, Payload: 0}, // good
		{Src: 1, Dst: 5, Payload: 1}, // misdelivered: packet 1 is for port 1
		{Src: 0, Dst: 0, Payload: 0}, // duplicate
	})
	if got := l.chk.misdelivered.Load(); got != 1 {
		t.Errorf("misdelivered = %d, want 1", got)
	}
	if got := l.chk.duplicates.Load(); got != 1 {
		t.Errorf("duplicates = %d, want 1", got)
	}
	if missing, phantom := l.chk.audit(3); missing != 2 || phantom != 0 {
		t.Errorf("audit(3) = missing %d, phantom %d; want 2, 0", missing, phantom)
	}
	if got := l.done.Load(); got != 3 {
		t.Errorf("callback released %d window slots, want 3", got)
	}
}

func TestCheckRouteRejectsMisroutedElement(t *testing.T) {
	dest := perm.Perm{2, 0, 3, 1}
	data := []int{10, 11, 12, 13}
	out := perm.Apply(dest, data)
	if err := checkRoute(dest, data, out); err != nil {
		t.Fatalf("correct route rejected: %v", err)
	}
	out[0], out[1] = out[1], out[0]
	if checkRoute(dest, data, out) == nil {
		t.Error("route with two outputs swapped accepted")
	}
	if checkRoute(dest, data, out[:3]) == nil {
		t.Error("short route output accepted")
	}
}
