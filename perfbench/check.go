package main

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/perm"
)

// checker verifies packet deliveries against the seeded inputs. Every
// packet carries its sequence number as payload; a delivery must arrive
// at the destination port the input sequence gave that number, and at
// most once. Deliveries are recorded from one goroutine (the single
// plane's router), so the bitmap words need atomic access only because
// the sender reads them too. The bitmap is allocated a chunk at a time
// as numbers are used, so the range costs no memory until a run
// reaches it.
type checker struct {
	want   func(seq int) pair
	limit  int                                         // numbers at or above limit are never valid
	chunks []atomic.Pointer[[chunkWords]atomic.Uint64] // bit seq set once seq is delivered

	misdelivered atomic.Int64 // wrong port, wrong source, or a sequence never sent
	duplicates   atomic.Int64
}

// chunkBits sequence numbers share one bitmap chunk (128 KiB).
const (
	chunkBits  = 1 << 20
	chunkWords = chunkBits / 64
)

func newChecker(capacity int, want func(seq int) pair) *checker {
	return &checker{want: want, limit: capacity,
		chunks: make([]atomic.Pointer[[chunkWords]atomic.Uint64], (capacity+chunkBits-1)/chunkBits)}
}

func (c *checker) capacity() int { return c.limit }

// word returns the bitmap word holding seq, allocating its chunk on
// first use by either goroutine.
func (c *checker) word(seq int) *atomic.Uint64 {
	p := &c.chunks[seq/chunkBits]
	ch := p.Load()
	if ch == nil {
		p.CompareAndSwap(nil, new([chunkWords]atomic.Uint64))
		ch = p.Load()
	}
	return &ch[seq%chunkBits/64]
}

func (c *checker) isDelivered(seq int) bool {
	return c.word(seq).Load()&(1<<uint(seq&63)) != 0
}

// deliver records that the packet numbered seq left the fabric at port
// dst, having entered at src. It reports whether the delivery was good.
func (c *checker) deliver(seq, src, dst int) bool {
	if seq < 0 || seq >= c.limit {
		c.misdelivered.Add(1)
		return false
	}
	if p := c.want(seq); int(p.src) != src || int(p.dst) != dst {
		c.misdelivered.Add(1)
		return false
	}
	w := c.word(seq)
	bit := uint64(1) << uint(seq&63)
	old := w.Load()
	if old&bit != 0 {
		c.duplicates.Add(1)
		return false
	}
	w.Store(old | bit)
	return true
}

// audit runs once the fabric is closed, after sent packets were
// accepted: it counts the packets below sent that never arrived and
// the deliveries of numbers at or above sent, which were never sent.
func (c *checker) audit(sent int) (missing, phantom int64) {
	for k := range c.chunks {
		base := k * chunkBits
		ch := c.chunks[k].Load()
		if ch == nil { // nothing delivered in this chunk
			missing += int64(min(max(sent-base, 0), chunkBits))
			continue
		}
		for i := range ch {
			lo := base + 64*i
			var sentMask uint64 // bits of this word numbering sent packets
			switch {
			case sent >= lo+64:
				sentMask = ^uint64(0)
			case sent > lo:
				sentMask = 1<<uint(sent-lo) - 1
			}
			w := ch[i].Load()
			missing += int64(bits.OnesCount64(sentMask &^ w))
			phantom += int64(bits.OnesCount64(w &^ sentMask))
		}
	}
	return missing, phantom
}

// checkRoute verifies one routed payload: the element input i carried
// must sit at output dest[i].
func checkRoute(dest perm.Perm, data, out []int) error {
	if len(out) != len(data) {
		return fmt.Errorf("route returned %d elements, want %d", len(out), len(data))
	}
	for i, d := range dest {
		if out[d] != data[i] {
			return fmt.Errorf("output %d holds %d, want input %d's element %d", d, out[d], i, data[i])
		}
	}
	return nil
}
