package memctrl

import (
	"testing"

	"pradram/internal/core"
)

// benchTraffic drives the controller with a synthetic random read/write
// mix and measures ticks per second under load. At most maxReads reads are
// outstanding; a positive maxQueued also caps the requests of either kind
// waiting in the queues (writes have no completion to count), which keeps
// them as shallow as a latency-bound core's.
func benchTraffic(b *testing.B, scheme Scheme, maxReads, maxQueued int) {
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := uint64(0x12345)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	outstanding := 0
	b.ResetTimer()
	for cpu := int64(0); cpu < int64(b.N); cpu++ {
		if outstanding < maxReads && (maxQueued == 0 || queued(c) < maxQueued) {
			addr := (next() % (4 << 30)) &^ 63
			if next()%2 == 0 {
				if c.Read(addr, core.Untagged(func(int64) { outstanding-- })) {
					outstanding++
				}
			} else {
				c.Write(addr, core.StoreBytes(int(next()%8)*8, 8))
			}
		}
		c.Tick(cpu)
	}
}

// queued counts the requests waiting in the controller's queues.
func queued(c *Controller) int {
	n := 0
	for _, cc := range c.chans {
		n += len(cc.readQ.reqs) + len(cc.writeQ.reqs)
	}
	return n
}

func BenchmarkControllerBaseline(b *testing.B)        { benchTraffic(b, Baseline, 48, 0) }
func BenchmarkControllerPRA(b *testing.B)             { benchTraffic(b, PRA, 48, 0) }
func BenchmarkControllerShallowBaseline(b *testing.B) { benchTraffic(b, Baseline, 2, 2) }
func BenchmarkControllerShallowPRA(b *testing.B)      { benchTraffic(b, PRA, 2, 2) }

// BenchmarkAddressDecompose measures the mapping hot path.
func BenchmarkAddressDecompose(b *testing.B) {
	am, err := NewAddressMapper(RowInterleaved, 2, DefaultConfig().Geom)
	if err != nil {
		b.Fatal(err)
	}
	var sink int
	for i := 0; i < b.N; i++ {
		l := am.Decompose(uint64(i) * 8192)
		sink += l.Bank
	}
	_ = sink
}
