package memctrl

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"pradram/internal/checkpoint"
	"pradram/internal/core"
)

// checkIndex asserts the reqQueue invariants of every channel: each bank
// list is exactly the in-order per-bank filter of its queue, with
// ascending sequence numbers; busy is the set of non-empty
// banks and order lists them by head arrival; rankHasWork agrees with the queues; and the device's open-bank
// bitmap, which the column pass filters on, agrees with its bank states.
func checkIndex(t *testing.T, c *Controller, cpu int64) {
	t.Helper()
	for ci, cc := range c.chans {
		var rankWork [64]bool
		for qi, q := range []*reqQueue{&cc.readQ, &cc.writeQ} {
			var cur [64]*request // next expected request of each bank list
			var busy uint64
			for b, h := range q.banks {
				cur[b] = h
				if h != nil {
					busy |= 1 << uint(b)
				}
			}
			if busy != q.busy {
				t.Fatalf("cpu %d: ch%d q%d: busy %#x, non-empty banks %#x", cpu, ci, qi, q.busy, busy)
			}
			var inOrder uint64
			for i, b := range q.order {
				inOrder |= 1 << uint(b)
				if h := q.banks[b]; h == nil || (i > 0 && q.banks[q.order[i-1]].seq >= h.seq) {
					t.Fatalf("cpu %d: ch%d q%d: order %v not the busy banks by head arrival", cpu, ci, qi, q.order)
				}
			}
			if inOrder != busy || len(q.order) != bits.OnesCount64(busy) {
				t.Fatalf("cpu %d: ch%d q%d: order %v lists other banks than busy %#x", cpu, ci, qi, q.order, busy)
			}
			var last uint64
			for i, r := range q.reqs {
				b := cc.bankIdx(r.loc.Rank, r.loc.Bank)
				if cur[b] != r {
					t.Fatalf("cpu %d: ch%d q%d: request %d (bank %d, seq %d) is not next in its bank list", cpu, ci, qi, i, b, r.seq)
				}
				if r.seq <= last {
					t.Fatalf("cpu %d: ch%d q%d: seq %d after %d", cpu, ci, qi, r.seq, last)
				}
				last = r.seq
				cur[b] = r.bnext
				rankWork[r.loc.Rank] = true
			}
			for b, r := range cur {
				if r != nil {
					t.Fatalf("cpu %d: ch%d q%d bank %d: list holds request seq %d not in the queue", cpu, ci, qi, b, r.seq)
				}
			}
		}
		for r := 0; r < c.cfg.Geom.Ranks; r++ {
			for b := 0; b < c.cfg.Geom.Banks; b++ {
				_, _, open := cc.ch.OpenRow(r, b)
				if bit := cc.ch.OpenBanks()>>uint(cc.bankIdx(r, b))&1 == 1; bit != open {
					t.Fatalf("cpu %d: ch%d: OpenBanks bit for bank %d/%d is %v, bank open %v", cpu, ci, r, b, bit, open)
				}
			}
			if cc.rankHasWork(r) != rankWork[r] {
				t.Fatalf("cpu %d: ch%d: rankHasWork(%d) = %v, queues say %v", cpu, ci, r, cc.rankHasWork(r), rankWork[r])
			}
		}
	}
}

// TestQueueIndexInvariants drives seeded random traffic — deep (48 queued
// requests) and shallow (2), with write merges, write-to-read forwards,
// write drains, per-bank or all-bank refresh and RowHammer mitigation —
// and checks the per-bank queue index after every DRAM tick and across a
// mid-run checkpoint round trip.
func TestQueueIndexInvariants(t *testing.T) {
	t.Parallel()
	for _, scheme := range []Scheme{Baseline, PRA} {
		for _, policy := range []Policy{RelaxedClose, OpenPage} {
			for _, refresh := range []RefreshMode{RefreshPerBank, RefreshAllBank} {
				for _, depth := range []int{48, 2} {
					scheme, policy, refresh, depth := scheme, policy, refresh, depth
					name := fmt.Sprintf("%v/%v/%v/depth%d", scheme, policy, refresh, depth)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						cfg := DefaultConfig()
						cfg.Scheme = scheme
						cfg.Policy = policy
						cfg.RefreshMode = refresh
						cfg.MitThreshold = 8
						cfg.HighWM, cfg.LowWM = 12, 4 // reachable with 48 queued
						driveIndexed(t, cfg, depth, int64(depth)*7+int64(scheme))
					})
				}
			}
		}
	}
}

func driveIndexed(t *testing.T, cfg Config, depth int, seed int64) {
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	// Half the traffic reuses a small set of lines, so writes merge and
	// reads forward from the write queue; the rest is spread over 4 GiB.
	hot := make([]uint64, 48)
	for i := range hot {
		hot[i] = (rng.Uint64() % (4 << 30)) &^ 63
	}
	dones := map[uint64]core.Done{}
	var serial uint64
	queued := func() int {
		n := 0
		for _, cc := range c.chans {
			n += len(cc.readQ.reqs) + len(cc.writeQ.reqs) + len(cc.forwards)
		}
		return n
	}
	merged, drained := 0, false
	cycles := int64(4 * 30_000)
	if testing.Short() {
		cycles = 4 * 8_000
	}
	for cpu := int64(0); cpu < cycles; cpu++ {
		if cpu == cycles/2 {
			var w checkpoint.Writer
			c.SaveState(&w)
			restored, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			commit, err := restored.RestoreState(checkpoint.NewReader(w.Bytes()),
				func(id uint64) (core.Done, bool) { d, ok := dones[id]; return d, ok })
			if err != nil {
				t.Fatal(err)
			}
			commit()
			c = restored
			checkIndex(t, c, cpu)
		}
		if rng.Intn(3) == 0 && queued() < depth {
			addr := (rng.Uint64() % (4 << 30)) &^ 63
			if rng.Intn(2) == 0 {
				addr = hot[rng.Intn(len(hot))]
			}
			if rng.Intn(3) == 0 {
				before := queued()
				if c.Write(addr, core.StoreBytes(rng.Intn(8)*8, 8)) && queued() == before {
					merged++
				}
			} else {
				serial++
				id := serial
				d := core.Done{Fn: func(int64) { delete(dones, id) },
					Tag: core.DoneTag{Kind: core.DoneFill, Serial: id}}
				dones[id] = d
				if !c.Read(addr, d) {
					delete(dones, id)
				}
			}
		}
		c.Tick(cpu)
		if cpu%c.cfg.CPUPerMem == 0 { // a DRAM tick: the scheduler ran
			checkIndex(t, c, cpu)
			drained = drained || c.chans[0].drain
		}
	}
	// Counters restart at the restore, so these cover the second half.
	if s := c.Stats(); depth > 2 && (merged == 0 || s.Forwarded == 0 || s.Alerts == 0 || !drained) {
		t.Errorf("deep traffic exercised %d merges, %d forwards, %d alerts, drain %v; want all four",
			merged, s.Forwarded, s.Alerts, drained)
	}
}
