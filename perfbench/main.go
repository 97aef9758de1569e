// Command perfbench is the repository's benchmark. It drives the packet
// fabric (internal/fabric), the route engine (internal/engine) and the
// admission journal (internal/journal) through their public APIs in
// closed loops, checks every delivery, and prints one JSON result line:
//
//	perfbench --workload uniform --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// pass and reports the per-layer budget. README.md explains the
// workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// metricDef names one reported metric and its unit. The two tables
// below are the benchmark's contract; BENCHMARK.json lists the same
// names and units, which the self-test checks.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"pkts_per_s", "1/s"},
	{"routes_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"peak_rss_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"fabric.send_ns", "ns"},
	{"fabric.voq_wait_us", "us"},
	{"fabric.match_us", "us"},
	{"fabric.plane_rtt_us", "us"},
	{"fabric.handoff_us", "us"},
	{"fabric.frame_fill", "ratio"},
	{"fabric.voq_max_depth", "count"},
	{"fabric.unattributed_us", "us"},
	{"engine.plan_us", "us"},
	{"engine.apply_us", "us"},
	{"engine.wait_us", "us"},
	{"engine.submit_ns", "ns"},
	{"engine.hit_ratio", "ratio"},
	{"engine.fallback_ratio", "ratio"},
	{"engine.setup_parallel_us", "us"},
	{"engine.subplan_hit_ratio", "ratio"},
	{"engine.evictions", "count"},
	{"engine.unattributed_us", "us"},
	{"journal.append_us", "us"},
	{"journal.bytes_per_pkt", "B"},
	{"journal.records_per_kpkt", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cycles", "count"},
	{"trace.sojourn_us", "us"},
	{"trace.send_us", "us"},
	{"trace.voq_wait_us", "us"},
	{"trace.plane_us", "us"},
	{"trace.deliver_us", "us"},
	{"bench.gen_busy_frac", "ratio"},
	{"bench.deliver_ns", "ns"},
	{"bench.trace_overhead", "ratio"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*outcome, error){
	"uniform":   func(o options) (*outcome, error) { return runPacket(packetSpec{}, o) },
	"hotspot":   func(o options) (*outcome, error) { return runPacket(packetSpec{hot: 4, hotFrac: 0.3}, o) },
	"audited":   func(o options) (*outcome, error) { return runPacket(packetSpec{audited: true}, o) },
	"route-mix": runRoutes,
}

const (
	// setupRuns set-ups are timed per run and setup_s is their median;
	// the last one serves the measured phase.
	setupRuns = 5
	// endToEndWindows slices the measured phase. The end-to-end figures
	// pool the whole phase; the slices' own rates and percentiles go to
	// the metadata line, to show how the program moved within a run.
	endToEndWindows = 20
	// traceWindows slices each half of a traced run.
	traceWindows = 10
)

type options struct {
	seed   int64
	dur    time.Duration
	traced bool
}

// epoch is the origin of every timestamp the benchmark takes.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

func at(t int64) time.Time { return epoch.Add(time.Duration(t)) }

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// outcome is what a workload run measured and checked.
type outcome struct {
	n, window, planes int
	setups            []float64
	attempted, failed int64
	errs              []string
	e2e               map[string]float64
	layers            map[string]float64
	samples           int64     // latency samples behind the reported metrics
	windowRates       []float64 // pkts_per_s of each window, for attributing spread
	windowP50         []float64 // latency_p50_us of each window
	windowP99         []float64 // latency_p99_us of each window
	budget            *budget
}

func (o *outcome) add(attempted, failed int64) {
	o.attempted += attempted
	o.failed += failed
}

// note records a check or send failure; it makes the run incorrect.
func (o *outcome) note(err error) {
	if err != nil {
		o.errs = append(o.errs, err.Error())
	}
}

func (o *outcome) endToEnd(ws *windows) {
	all := ws.pooled()
	o.e2e = map[string]float64{
		"pkts_per_s":     ws.totalRate(all.ops),
		"routes_per_s":   ws.totalRate(all.routes),
		"latency_p50_us": all.lat.quantile(0.50) / 1e3,
		"latency_p99_us": all.lat.quantile(0.99) / 1e3,
	}
	o.samples = all.lat.total
	for i := range ws.w {
		w := &ws.w[i]
		o.windowRates = append(o.windowRates, ws.opsRate(w))
		o.windowP50 = append(o.windowP50, w.lat.quantile(0.50)/1e3)
		o.windowP99 = append(o.windowP99, w.lat.quantile(0.99)/1e3)
	}
}

// histMeanUs is the mean, in microseconds, of the observations a
// histogram gained between two snapshots.
func histMeanUs(a, b obs.HistogramSnapshot) float64 {
	return ratio(float64(b.MeanNs*b.Count-a.MeanNs*a.Count), float64(b.Count-a.Count)) / 1e3
}

func (o *outcome) engineLayers(a, b engine.Snapshot) {
	o.layers["engine.plan_us"] = histMeanUs(a.Plan, b.Plan)
	o.layers["engine.apply_us"] = histMeanUs(a.Apply, b.Apply)
	o.layers["engine.wait_us"] = histMeanUs(a.Wait, b.Wait)
	o.layers["engine.setup_parallel_us"] = histMeanUs(a.SetupPar, b.SetupPar)
}

func (o *outcome) runtimeLayers(a, b runtime.MemStats, ops float64) {
	o.layers["runtime.allocs_per_op"] = ratio(float64(b.Mallocs-a.Mallocs), ops)
	o.layers["runtime.gc_cycles"] = float64(b.NumGC - a.NumGC)
}

// benchLayers reports the harness's own costs in the traced phase ph,
// and the throughput it lost to tracing against the untraced half.
func (o *outcome) benchLayers(ph *phase, traced, plain *windows) {
	elapsed := float64(traced.width) * float64(len(traced.w))
	o.layers["bench.gen_busy_frac"] = 1 - ratio(float64(ph.blockedNs), elapsed)
	o.layers["bench.deliver_ns"] = ratio(float64(ph.deliverNs), float64(ph.callbacks))
	o.layers["bench.trace_overhead"] = 1 - ratio(traced.totalRate(traced.pooled().ops), plain.totalRate(plain.pooled().ops))
	o.samples = traced.samples()
}

// packetLayers reads the fabric, its plane engine, the journal and the
// runtime as deltas over a traced phase.
func (o *outcome) packetLayers(ph *phase, a, b layerSample, traced, plain *windows) {
	fa, fb := a.fab, b.fab
	delivered := float64(fb.Delivered - fa.Delivered)
	o.layers["fabric.send_ns"] = ratio(float64(ph.sendNs), float64(ph.sends))
	o.layers["fabric.voq_wait_us"] = histMeanUs(fa.Stages.VOQWait, fb.Stages.VOQWait)
	o.layers["fabric.match_us"] = histMeanUs(fa.Stages.Match, fb.Stages.Match)
	o.layers["fabric.plane_rtt_us"] = histMeanUs(fa.Stages.PlaneRTT, fb.Stages.PlaneRTT)
	o.layers["fabric.frame_fill"] = ratio(delivered, float64(fb.Frames-fa.Frames)*float64(o.n))
	depth := int64(0)
	for _, in := range fb.VOQ.PerInput {
		depth = max(depth, in.MaxDepth)
	}
	o.layers["fabric.voq_max_depth"] = float64(depth)
	o.engineLayers(fa.Planes[0].Engine, fb.Planes[0].Engine)
	o.layers["journal.append_us"] = histMeanUs(a.jrn.append, b.jrn.append)
	o.layers["journal.bytes_per_pkt"] = ratio(float64(b.jrn.bytes-a.jrn.bytes), delivered)
	o.layers["journal.records_per_kpkt"] = 1e3 * ratio(float64(b.jrn.appended-a.jrn.appended), delivered)
	o.runtimeLayers(a.mem, b.mem, delivered)
	o.benchLayers(ph, traced, plain)
}

// hostProbe times two fixed single-threaded loops, the same work in
// every run: integer arithmetic in registers, and random reads over a
// 32 MiB buffer, which misses the per-core caches and so feels the
// host's shared-cache and memory contention. A change in these times
// between two sets of runs is the host's, not the program's.
func hostProbe() (cpu, mem time.Duration) {
	t := time.Now()
	x, acc := uint64(0x9e3779b97f4a7c15), uint64(0)
	for i := 0; i < 1<<24; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += x & 0xff
	}
	cpu = time.Since(t)
	buf := make([]uint64, 1<<22)
	for i := range buf {
		buf[i] = uint64(i)
	}
	t = time.Now()
	for i := 0; i < 1<<22; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += buf[x&(1<<22-1)]
	}
	mem = time.Since(t)
	probeSink = acc
	return cpu, mem
}

var probeSink uint64

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set (VmHWM, as ru_maxrss
// reports it in KiB on Linux) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one workload and assembles the result and the metadata
// line printed before it.
func run(name string, o options, spanDir string) (*result, map[string]any, error) {
	runner, ok := workloads[name]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", name)
	}
	cpu0, mem0 := hostProbe()
	debug.FreeOSMemory() // keep the probe's buffer out of the workload's peak RSS
	out, err := runner(o)
	if err != nil {
		return nil, nil, err
	}
	peak := peakRSSMB()
	cpu1, mem1 := hostProbe()

	defs, values := endToEndMetrics, out.e2e
	if o.traced {
		defs, values = perLayerMetrics, out.layers
	} else {
		values["setup_s"] = median(out.setups)
		values["peak_rss_mb"] = peak
	}
	res := &result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	if len(out.errs) > 0 && res.Failed == 0 {
		res.Failed = 1
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	meta := map[string]any{
		"workload":     name,
		"seed":         o.seed,
		"seconds":      o.dur.Seconds(),
		"trace":        o.traced,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"commit":       commit(),
		"n":            out.n,
		"window":       out.window,
		"planes":       out.planes,
		"setups_s":     out.setups,
		"samples":      out.samples,
		"window_rates": out.windowRates,
		"window_p50":   out.windowP50,
		"window_p99":   out.windowP99,
		"host_probe_ms": map[string][]float64{
			"cpu": {ms(cpu0), ms(cpu1)},
			"mem": {ms(mem0), ms(mem1)},
		},
		"errors": out.errs,
	}
	if b := out.budget; b != nil {
		meta["traced_items"] = b.items
		meta["traced_broken"] = b.broken
		path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-%d.jsonl", name, o.seed))
		if err := b.write(path); err != nil {
			return nil, nil, fmt.Errorf("write spans: %w", err)
		}
		meta["spans"] = path
	}
	return res, meta, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+workloadNames())
		seed    = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 8, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "0 reports end-to-end metrics, 1 runs the traced per-layer pass")
		out     = flag.String("out", ".bench_build", "directory receiving a traced run's span dump")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	o := options{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1}
	res, meta, err := run(*name, o, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	m, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(m))
	fmt.Println(string(r))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
