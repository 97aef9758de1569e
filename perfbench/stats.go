package main

import (
	"math/bits"
	"sort"
)

// subBits sets the latency histogram's resolution: each power of two
// is split into 2^subBits linear sub-buckets, so a reported quantile is
// within 1/2^(subBits+1) ≈ 0.8% of the true sample.
const subBits = 6

// latBuckets covers every duration below 2^40 ns (about 18 minutes).
const latBuckets = (40 - subBits + 1) << subBits

// latHist is a log-linear latency histogram. It is owned by one
// goroutine at a time and needs no synchronization.
type latHist struct {
	counts [latBuckets]uint32
	total  int64
}

func latBucket(ns int64) int {
	if ns < 1<<subBits {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	shift := bits.Len64(uint64(ns)) - 1 - subBits
	idx := (shift+1)<<subBits + int(ns>>uint(shift))&(1<<subBits-1)
	if idx >= latBuckets {
		return latBuckets - 1
	}
	return idx
}

// bucketMid is the midpoint of bucket idx in nanoseconds.
func bucketMid(idx int) float64 {
	if idx < 1<<subBits {
		return float64(idx)
	}
	shift := idx>>subBits - 1
	lo := int64(1<<subBits+idx&(1<<subBits-1)) << uint(shift)
	return float64(lo) + float64(int64(1)<<uint(shift))/2
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
}

func (h *latHist) add(ns int64) {
	h.counts[latBucket(ns)]++
	h.total++
}

// quantile returns the q-quantile in nanoseconds: the midpoint of the
// bucket holding the ceil(q·total)-th smallest sample.
func (h *latHist) quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := int64(q*float64(h.total) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	cum := int64(0)
	for i, c := range h.counts {
		cum += int64(c)
		if cum >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(latBuckets - 1)
}

// window is one slice of a measured phase: the operations completed in
// it and the latency of each.
type window struct {
	ops    int64 // payload elements delivered: packets, or N per route
	routes int64 // passes through the network: frames, or routes
	lat    latHist
}

// windows splits a measured phase into equal slices by completion time.
type windows struct {
	t0, width int64 // ns since epoch, ns
	w         []window
}

func newWindows(t0, span int64, count int) *windows {
	return &windows{t0: t0, width: span / int64(count), w: make([]window, count)}
}

// at returns the window that completion time t falls in, nil outside
// the phase (deliveries draining after the deadline).
func (ws *windows) at(t int64) *window {
	i := (t - ws.t0) / ws.width
	if i < 0 || i >= int64(len(ws.w)) {
		return nil
	}
	return &ws.w[i]
}

func (ws *windows) samples() int64 {
	n := int64(0)
	for i := range ws.w {
		n += ws.w[i].lat.total
	}
	return n
}

// pooled merges every slice into one window spanning the whole phase;
// the end-to-end figures come from it. Per-slice figures follow the
// host's speed, which drifts over seconds: within one hotspot run the
// per-slice p50 ranged 110–200 µs, tracking the frame rate. A median
// over short slices flips between such states; the whole phase
// averages them.
func (ws *windows) pooled() *window {
	all := &window{}
	for i := range ws.w {
		w := &ws.w[i]
		all.ops += w.ops
		all.routes += w.routes
		all.lat.merge(&w.lat)
	}
	return all
}

// totalRate is v per second of the whole phase.
func (ws *windows) totalRate(v int64) float64 {
	return float64(v) * 1e9 / float64(ws.width*int64(len(ws.w)))
}

// opsRate is one slice's delivery rate.
func (ws *windows) opsRate(w *window) float64 { return float64(w.ops) * 1e9 / float64(ws.width) }

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
