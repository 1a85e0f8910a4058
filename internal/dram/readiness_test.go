package dram

import (
	"math/rand"
	"testing"

	"pradram/internal/checkpoint"
	"pradram/internal/core"
)

// TestRankReadyMatchesReadyAt drives a random legal command stream — ACT
// of every mask, reads and writes with and without auto-precharge, PRE,
// REF, power-down entry and wake — and after every command checks, for
// several query cycles and every bank, that the rank-floor decomposition
// (RankReadyAt plus the *ReadyFrom bank terms) reproduces ActReadyAt,
// ReadReadyAt, WriteReadyAt and PreReadyAt exactly.
func TestRankReadyMatchesReadyAt(t *testing.T) {
	t.Parallel()
	for _, unweighted := range []bool{false, true} {
		c := newTestChannel(t)
		c.NoWeightedFAW = unweighted
		rng := rand.New(rand.NewSource(11))
		now := int64(0)
		check := func(step int) {
			c.AdvanceTo(now)
			for _, q := range []int64{now, now + int64(rng.Intn(8)), now + int64(rng.Intn(200))} {
				checkRankReady(t, c, q, step)
			}
		}
		for i := 0; i < 4000; i++ {
			r := rng.Intn(c.G.Ranks)
			c.Wake(now, r)
			if rng.Intn(10) != 0 {
				issueRandom(t, c, rng, &now, r, rng.Intn(c.G.Banks))
				check(i)
				continue
			}
			// Idle the rank: close its banks, then refresh or power down.
			for b := 0; b < c.G.Banks; b++ {
				if _, _, open := c.OpenRow(r, b); open {
					now = c.PreReadyAt(now, r, b)
					if err := c.Precharge(now, r, b); err != nil {
						t.Fatal(err)
					}
					check(i)
				}
			}
			if at, _ := c.RefreshReadyAt(now, r); rng.Intn(2) == 0 && at >= c.NextRefreshAt(r) {
				now = at
				if err := c.Refresh(now, r); err != nil {
					t.Fatal(err)
				}
			} else {
				now = max(now, c.PDEntryReadyAt(r))
				c.EnterPowerDown(now, r)
				now += int64(rng.Intn(40))
			}
			check(i)
		}
		if s := c.Stats; s.Refreshes == 0 || s.PowerDownCycles == 0 || s.Precharges == 0 {
			t.Errorf("stream issued %d REFs, %d PREs and %d power-down cycles; want all three", s.Refreshes, s.Precharges, s.PowerDownCycles)
		}
	}
}

// issueRandom issues one random ACT, RD, WR or PRE to bank (r,b) of an
// awake rank at its earliest ready cycle and advances now to it.
func issueRandom(t *testing.T, c *Channel, rng *rand.Rand, now *int64, r, b int) {
	t.Helper()
	var err error
	if _, _, open := c.OpenRow(r, b); !open {
		mask := core.Mask(rng.Intn(255) + 1)
		half := rng.Intn(2) == 0
		*now = c.ActReadyAt(*now, r, b, mask, half)
		err = c.Activate(*now, r, b, rng.Intn(c.G.Rows), mask, half)
	} else {
		autoPre := rng.Intn(3) == 0
		switch rng.Intn(3) {
		case 0:
			*now = c.ReadReadyAt(*now, r, b, c.T.TBURST)
			_, err = c.Read(*now, r, b, c.T.TBURST, 1, autoPre)
		case 1:
			*now = c.WriteReadyAt(*now, r, b, c.T.TBURST)
			_, err = c.Write(*now, r, b, c.T.TBURST, rng.Float64(), autoPre)
		default:
			*now = c.PreReadyAt(*now, r, b)
			err = c.Precharge(*now, r, b)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
}

func checkRankReady(t *testing.T, c *Channel, q int64, step int) {
	t.Helper()
	for r := 0; r < c.G.Ranks; r++ {
		var rr RankReady
		c.RankReadyAt(q, r, &rr)
		for b := 0; b < c.G.Banks; b++ {
			for _, mask := range []core.Mask{core.FullMask, 0x01, 0x0f, 0x7f} {
				for _, half := range []bool{false, true} {
					if got, want := c.ActReadyFrom(&rr, b, mask, half), c.ActReadyAt(q, r, b, mask, half); got != want {
						t.Fatalf("step %d q %d: ACT %d/%d mask %v half %v: ActReadyFrom %d, ActReadyAt %d", step, q, r, b, mask, half, got, want)
					}
				}
			}
			if got, want := c.ReadReadyFrom(&rr, b), c.ReadReadyAt(q, r, b, c.T.TBURST); got != want {
				t.Fatalf("step %d q %d: RD %d/%d: ReadReadyFrom %d, ReadReadyAt %d", step, q, r, b, got, want)
			}
			if got, want := c.WriteReadyFrom(&rr, b), c.WriteReadyAt(q, r, b, c.T.TBURST); got != want {
				t.Fatalf("step %d q %d: WR %d/%d: WriteReadyFrom %d, WriteReadyAt %d", step, q, r, b, got, want)
			}
			if got, want := c.PreReadyFrom(&rr, b), c.PreReadyAt(q, r, b); got != want {
				t.Fatalf("step %d q %d: PRE %d/%d: PreReadyFrom %d, PreReadyAt %d", step, q, r, b, got, want)
			}
		}
	}
}

// TestChangedBanks checks the changed-banks bitmap: ACT, PRE and
// auto-precharging columns set their bank's bit, plain columns and REF do
// not, TakeChangedBanks clears the set, and a restore marks every bank.
func TestChangedBanks(t *testing.T) {
	t.Parallel()
	c := newTestChannel(t)
	bit := func(r, b int) uint64 { return 1 << uint(r*c.G.Banks+b) }
	take := func(want uint64, what string) {
		t.Helper()
		if got := c.ChangedBanks(); got != want {
			t.Fatalf("%s: ChangedBanks %#x, want %#x", what, got, want)
		}
		if got := c.TakeChangedBanks(); got != want || c.ChangedBanks() != 0 {
			t.Fatalf("%s: TakeChangedBanks %#x then %#x, want %#x then 0", what, got, c.ChangedBanks(), want)
		}
	}
	take(0, "fresh channel")
	now := mustActivate(t, c, 0, 0, 2, 7, core.FullMask, false)
	now = mustActivate(t, c, now, 1, 5, 9, 0x0f, false)
	take(bit(0, 2)|bit(1, 5), "two ACTs")
	now = c.ReadReadyAt(now, 0, 2, c.T.TBURST)
	if _, err := c.Read(now, 0, 2, c.T.TBURST, 1, false); err != nil {
		t.Fatal(err)
	}
	take(0, "read without auto-precharge")
	now = c.WriteReadyAt(now, 1, 5, c.T.TBURST)
	if _, err := c.Write(now, 1, 5, c.T.TBURST, 0.5, true); err != nil {
		t.Fatal(err)
	}
	take(bit(1, 5), "write with auto-precharge")
	now = c.PreReadyAt(now, 0, 2)
	if err := c.Precharge(now, 0, 2); err != nil {
		t.Fatal(err)
	}
	take(bit(0, 2), "precharge")
	at, _ := c.RefreshReadyAt(now, 0)
	if err := c.Refresh(max(at, c.NextRefreshAt(0)), 0); err != nil {
		t.Fatal(err)
	}
	take(0, "refresh")

	var w checkpoint.Writer
	c.SaveState(&w)
	commit, err := c.RestoreState(checkpoint.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	commit()
	take(^uint64(0), "restore")
}
