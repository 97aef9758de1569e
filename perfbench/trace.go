package main

import (
	"bufio"
	"encoding/json"
	"os"
)

// spanRec is one span of a traced run, as written to the span dump:
// spans of one packet or route share Trace, and Parent names the span
// that caused this one (-1 for the root).
type spanRec struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the benchmark process started
	End    int64  `json:"end_ns"`
}

// maxDumped bounds the traced items whose spans are kept for the dump;
// the budget itself covers every traced item.
const maxDumped = 2000

// budget splits traced sojourns among the layers a traced item passes
// through, in the order it passes them. A layer's self time is the part
// of its span not already covered by the layers before it, so adjacent
// spans that overlap (the fabric stamps enqueue inside Send) are not
// counted twice, and whatever no span covers is unattributed.
type budget struct {
	root   string
	layers []string
	self   []int64 // summed self time per layer
	total  int64   // summed sojourn
	items  int64
	broken int64 // traced items missing a span the fabric should record
	dump   []spanRec
}

func newBudget(root string, layers ...string) *budget {
	return &budget{root: root, layers: layers, self: make([]int64, len(layers))}
}

// add attributes one traced item whose root span is [start, end] and
// whose layer i spans spans[i]. id names the item in the dump; it is
// called only for the items kept there.
func (b *budget) add(id func() string, start, end int64, spans ...[2]int64) {
	cursor := start
	for i, s := range spans {
		lo, hi := max(s[0], cursor), min(s[1], end)
		if hi > lo {
			b.self[i] += hi - lo
		}
		cursor = max(cursor, hi)
	}
	b.total += end - start
	b.items++
	if b.items > maxDumped {
		return
	}
	tid := id()
	b.dump = append(b.dump, spanRec{Trace: tid, ID: 0, Parent: -1, Name: b.root, Start: start, End: end})
	for i, s := range spans {
		b.dump = append(b.dump, spanRec{Trace: tid, ID: i + 1, Parent: 0, Name: b.layers[i], Start: s[0], End: s[1]})
	}
}

// meanUs is layer i's mean self time in microseconds.
func (b *budget) meanUs(i int) float64 { return ratio(float64(b.self[i]), float64(b.items)) / 1e3 }

// sojournUs is the mean traced sojourn in microseconds.
func (b *budget) sojournUs() float64 { return ratio(float64(b.total), float64(b.items)) / 1e3 }

// unattributedUs is the mean part of the sojourn no layer's span covers.
func (b *budget) unattributedUs() float64 {
	rest := b.total
	for _, s := range b.self {
		rest -= s
	}
	return ratio(float64(rest), float64(b.items)) / 1e3
}

// write dumps the kept spans as JSON lines.
func (b *budget) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range b.dump {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// packetBudget attributes the traced packets of ph. The fabric records
// voq_wait (enqueue to extraction into a frame) and plane_transit
// (plane serve through journaling); the benchmark records send (the
// Send call) and deliver (callback entry to this packet's check). The
// gap between extraction and plane start is the scheduler→router
// handoff, matching pass included.
func (o *outcome) packetBudget(ph *phase) {
	b := newBudget("packet", "send", "voq_wait", "handoff", "plane_transit", "deliver")
	for _, d := range ph.delivered {
		base := d.tr.Start().Sub(epoch).Nanoseconds()
		var span [3][2]int64
		found := 0
		for _, s := range d.tr.Snapshot().Spans {
			k := -1
			switch s.Stage {
			case "send":
				k = 0
			case "voq_wait":
				k = 1
			case "plane_transit":
				k = 2
			}
			if k >= 0 {
				span[k] = [2]int64{base + s.StartNs, base + s.StartNs + s.DurNs}
				found++
			}
		}
		if found != 3 {
			b.broken++
			continue
		}
		send, voq, plane := span[0], span[1], span[2]
		b.add(d.tr.ID, send[0], d.end,
			send, voq, [2]int64{voq[1], plane[0]}, plane, [2]int64{d.cb0, d.end})
	}
	o.budget = b
	o.layers["trace.sojourn_us"] = b.sojournUs()
	o.layers["trace.send_us"] = b.meanUs(0)
	o.layers["trace.voq_wait_us"] = b.meanUs(1)
	o.layers["fabric.handoff_us"] = b.meanUs(2)
	o.layers["trace.plane_us"] = b.meanUs(3)
	o.layers["trace.deliver_us"] = b.meanUs(4)
	o.layers["fabric.unattributed_us"] = b.unattributedUs()
}
