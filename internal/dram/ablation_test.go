package dram

import (
	"math/bits"
	"testing"

	"pradram/internal/core"
	"pradram/internal/power"
)

// With NoWeightedFAW set, partial activations charge full weight: the FAW
// window binds after four 1/8 activations just as it does for full rows.
func TestNoWeightedFAWDisablesRelaxation(t *testing.T) {
	t.Parallel()
	ch, err := NewChannel(DefaultTiming(), DefaultGeometry(), power.NewAccumulator())
	if err != nil {
		t.Fatal(err)
	}
	ch.NoWeightedFAW = true
	var at int64
	for bnk := 0; bnk < 4; bnk++ {
		ready := ch.ActReadyAt(at, 0, bnk, core.Mask(0x01), false)
		if err := ch.Activate(ready, 0, bnk, 1, core.Mask(0x01), false); err != nil {
			t.Fatal(err)
		}
		at = ready
	}
	ready := ch.ActReadyAt(at, 0, 4, core.Mask(0x01), false)
	if ready < int64(ch.T.TFAW) {
		t.Errorf("5th partial ACT at %d; with relaxation disabled it must wait for tFAW %d", ready, ch.T.TFAW)
	}
	// tRRD is also unscaled: spacing between partial ACTs is full tRRD
	// (the mask cycle adds atop, but tRRD dominates here).
	ch2, _ := NewChannel(DefaultTiming(), DefaultGeometry(), power.NewAccumulator())
	ch2.NoWeightedFAW = true
	if err := ch2.Activate(0, 0, 0, 1, core.Mask(0x01), false); err != nil {
		t.Fatal(err)
	}
	if got := ch2.ActReadyAt(0, 0, 1, core.Mask(0x01), false); got != int64(ch2.T.TRRD) {
		t.Errorf("unrelaxed partial tRRD = %d, want %d", got, ch2.T.TRRD)
	}
}

func TestNextRefreshAtAdvances(t *testing.T) {
	t.Parallel()
	ch, err := NewChannel(DefaultTiming(), DefaultGeometry(), power.NewAccumulator())
	if err != nil {
		t.Fatal(err)
	}
	first := ch.NextRefreshAt(0)
	if first <= 0 || first > int64(ch.T.TREFI) {
		t.Fatalf("first refresh at %d, want within one tREFI", first)
	}
	if err := ch.Refresh(first, 0); err != nil {
		t.Fatal(err)
	}
	if got := ch.NextRefreshAt(0); got != first+int64(ch.T.TREFI) {
		t.Errorf("next refresh at %d, want %d", got, first+int64(ch.T.TREFI))
	}
}

func TestOpenBankCountAndReset(t *testing.T) {
	t.Parallel()
	ch, err := NewChannel(DefaultTiming(), DefaultGeometry(), power.NewAccumulator())
	if err != nil {
		t.Fatal(err)
	}
	if bits.OnesCount64(ch.OpenBanks()) != 0 {
		t.Fatal("fresh channel has no open banks")
	}
	mustActivate(t, ch, 0, 0, 0, 1, core.FullMask, false)
	mustActivate(t, ch, 10, 1, 3, 2, core.FullMask, false)
	if got := bits.OnesCount64(ch.OpenBanks()); got != 2 {
		t.Errorf("open banks = %d, want 2", got)
	}
	ch.ResetStats()
	if ch.Stats.Activations() != 0 {
		t.Error("ResetStats must zero counters")
	}
	if bits.OnesCount64(ch.OpenBanks()) != 2 {
		t.Error("ResetStats must not disturb device state")
	}
}
