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
// list holds only its bank's requests, with ascending sequence numbers;
// the arrival iterator visits n requests in ascending seq order; busy is
// the set of non-empty banks and order lists them by head arrival;
// rankHasWork agrees with the queues; the device's open-bank bitmap, which
// the column pass filters on, agrees with its bank states; and every bank
// summary the scheduler would trust equals a from-scratch recomputation
// (checkSummaries).
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
				for r := h; r != nil; r = r.bnext {
					if cc.bankIdx(r.loc.Rank, r.loc.Bank) != b || (r.bnext != nil && r.bnext.seq <= r.seq) {
						t.Fatalf("cpu %d: ch%d q%d bank %d: request seq %d (bank %d) out of place", cpu, ci, qi, b, r.seq, cc.bankIdx(r.loc.Rank, r.loc.Bank))
					}
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
			n := 0
			q.arrival(func(r *request) {
				b := cc.bankIdx(r.loc.Rank, r.loc.Bank)
				if cur[b] != r || r.seq <= last {
					t.Fatalf("cpu %d: ch%d q%d: arrival visits seq %d (bank %d) after seq %d, not next in arrival order", cpu, ci, qi, r.seq, b, last)
				}
				last = r.seq
				cur[b] = r.bnext
				rankWork[r.loc.Rank] = true
				n++
			})
			if n != q.n {
				t.Fatalf("cpu %d: ch%d q%d: arrival visits %d requests, n = %d", cpu, ci, qi, n, q.n)
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
		checkSummaries(t, cc, cpu)
	}
}

// checkSummaries asserts that every bank summary the next pass would use —
// marked valid and not pending in the device's changed-banks set, which
// schedule drops first — equals a recomputation from the bank's lists and
// open row, written here without the controller's helpers. fhNext is
// progress rather than a derived value: it must be a request of its list
// (or nil), and every same-row request before it that the open mask fails
// to cover must already be marked a false hit.
func checkSummaries(t *testing.T, cc *chanCtl, cpu int64) {
	t.Helper()
	for m := cc.valid &^ cc.ch.ChangedBanks(); m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		got := cc.sum[b]
		want := bankSum{hits: got.hits, rank: b / cc.cfg.Geom.Banks, bank: b % cc.cfg.Geom.Banks}
		row, mask, open := cc.ch.OpenRow(want.rank, want.bank)
		lists := [2]*request{cc.readQ.banks[b], cc.writeQ.banks[b]}
		if !open {
			want.actMask = core.FullMask
			if h := lists[1]; h != nil && cc.cfg.Scheme.praWrites() {
				want.actMask = h.wordMask
				for o := lists[0]; o != nil; o = o.bnext {
					if o.loc.Row == h.loc.Row {
						want.actMask = core.FullMask
					}
				}
				for o := lists[1]; o != nil && want.actMask != core.FullMask; o = o.bnext {
					if o.loc.Row == h.loc.Row {
						want.actMask |= o.wordMask
					}
				}
			}
		} else {
			want.partial = mask != core.FullMask
			for i, h := range lists {
				for o := h; o != nil; o = o.bnext {
					need := core.FullMask
					if o.kind == core.Write {
						need = o.wordMask
					}
					if o.loc.Row == row && need&^mask == 0 {
						if want.cand[i] == nil {
							want.cand[i], want.candSeq[i] = o, o.seq
						}
						want.covered++
					}
				}
			}
			want.benefits = want.covered > 0 && got.hits < cc.cfg.MaxRowHits
		}
		for i, h := range lists {
			fh := got.fhNext[i]
			want.fhNext[i] = fh
			if !want.partial {
				if fh != nil {
					t.Fatalf("cpu %d: ch%d bank %d queue %d: false-hit cursor set on a fully open or closed bank", cpu, cc.idx, b, i)
				}
				continue
			}
			o := h
			for ; o != nil && o != fh; o = o.bnext {
				need := core.FullMask
				if o.kind == core.Write {
					need = o.wordMask
				}
				if o.loc.Row == row && need&^mask != 0 && !o.falseHit {
					t.Fatalf("cpu %d: ch%d bank %d queue %d: request seq %d passed by the false-hit cursor unmarked", cpu, cc.idx, b, i, o.seq)
				}
			}
			if o != fh {
				t.Fatalf("cpu %d: ch%d bank %d queue %d: false-hit cursor not in the bank list", cpu, cc.idx, b, i)
			}
		}
		if got != want {
			t.Fatalf("cpu %d: ch%d bank %d (open %v row %d mask %v): summary %+v, recomputed %+v", cpu, cc.idx, b, open, row, mask, got, want)
		}
	}
}

// TestQueueIndexInvariants drives seeded random traffic — deep (48 queued
// requests) and shallow (2), with write merges, write-to-read forwards,
// write drains, per-bank or all-bank refresh and RowHammer mitigation —
// and checks the per-bank queue index and the bank summaries after every
// DRAM tick and across a mid-run checkpoint round trip.
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
			n += cc.readQ.n + cc.writeQ.n + len(cc.forwards)
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

// TestMergeWidensCoveredHead pins the merge-path invalidation. A PRA
// write activates its row under a partial mask and waits out tRCD with the
// channel asleep; a merge (which does not wake the channel) then widens
// its mask past the open one. At the next pass the write must no longer be
// the bank's column candidate, the bank must stop holding its row for it,
// and the write must count as a false hit: it is served only after a PRE
// and a second, wider activation.
func TestMergeWidensCoveredHead(t *testing.T) {
	t.Parallel()
	c := newCtl(t, func(cfg *Config) { cfg.Scheme = PRA })
	addr := addrAt(c, Loc{Row: 9, Col: 3})
	l := c.Mapper().Decompose(addr)
	cc := c.chans[l.Channel]
	b := cc.bankIdx(l.Rank, l.Bank)
	if !c.Write(addr, core.StoreBytes(0, 8)) { // word 0
		t.Fatal("write rejected")
	}
	w := cc.writeQ.banks[b]
	cpu := runUntil(t, c, 0, 10_000, func() bool {
		return cc.ch.OpenBanks()&(1<<uint(b)) != 0 && cc.nextWake > c.MemCycle()+1
	}) + 1
	if s := cc.sum[b]; cc.valid&(1<<uint(b)) == 0 || s.cand[1] != w || !s.benefits {
		t.Fatalf("before the merge: summary valid %v, candidate %p (want the write %p), benefits %v",
			cc.valid&(1<<uint(b)) != 0, s.cand[1], w, s.benefits)
	}
	wake := cc.nextWake
	if !c.Write(addr, core.StoreBytes(40, 8)) || cc.writeQ.n != 1 { // word 5, merged
		t.Fatal("second write did not merge")
	}
	if cc.nextWake != wake {
		t.Fatalf("the merge woke the channel (nextWake %d -> %d)", wake, cc.nextWake)
	}
	for ; c.MemCycle() < wake; cpu++ {
		c.Tick(cpu)
	}
	if s := cc.sum[b]; cc.valid&(1<<uint(b)) == 0 || s.cand[1] != nil || s.benefits || s.covered != 0 {
		t.Fatalf("pass at %d after the merge: summary valid %v, candidate %p, benefits %v, covered %d; want valid, none, false, 0",
			wake, cc.valid&(1<<uint(b)) != 0, s.cand[1], s.benefits, s.covered)
	}
	if st := c.Stats(); st.WritesServed != 0 || st.FalseHitWrite != 1 {
		t.Fatalf("pass at %d after the merge: %d writes served, %d false hits; want 0 and 1", wake, st.WritesServed, st.FalseHitWrite)
	}
	runUntil(t, c, cpu, 10_000, func() bool { return !c.Pending() })
	d := c.DeviceStats()
	if d.Writes != 1 || d.Precharges < 1 || d.ActsByGranularity[1] != 1 || d.ActsByGranularity[2] != 1 {
		t.Errorf("device: %d writes, %d PREs, ACT granularities %v; want 1 write after a 1/8 ACT, a PRE and a 2/8 ACT",
			d.Writes, d.Precharges, d.ActsByGranularity)
	}
}
