package memctrl

import (
	"math/bits"
	"testing"

	"pradram/internal/core"
)

func TestOpenPageKeepsRowsOpen(t *testing.T) {
	t.Parallel()
	c := newCtl(t, func(cfg *Config) { cfg.Policy = OpenPage })
	done := false
	c.Read(addrAt(c, Loc{Row: 5, Col: 0}), core.Untagged(func(int64) { done = true }))
	runUntil(t, c, 0, 10000, func() bool { return done })
	// The queue is empty, yet the row stays open (relaxed close would
	// have closed it).
	var cpu int64 = 10000
	for ; cpu < 12000; cpu++ {
		c.Tick(cpu)
	}
	if got := bits.OnesCount64(c.chans[0].ch.OpenBanks()) + bits.OnesCount64(c.chans[1].ch.OpenBanks()); got != 1 {
		t.Fatalf("open banks = %d, want 1 (open-page persistence)", got)
	}
	// A late same-row read hits without re-activation.
	done = false
	c.Read(addrAt(c, Loc{Row: 5, Col: 1}), core.Untagged(func(int64) { done = true }))
	runUntil(t, c, cpu, 10000, func() bool { return done })
	s := c.Stats()
	if s.RowHitRead != 1 {
		t.Errorf("late same-row read hits = %d, want 1", s.RowHitRead)
	}
	if c.DeviceStats().Activations() != 1 {
		t.Errorf("activations = %d, want 1", c.DeviceStats().Activations())
	}
}

func TestOpenPageConflictCloses(t *testing.T) {
	t.Parallel()
	c := newCtl(t, func(cfg *Config) { cfg.Policy = OpenPage })
	done := 0
	c.Read(addrAt(c, Loc{Row: 5}), core.Untagged(func(int64) { done++ }))
	runUntil(t, c, 0, 10000, func() bool { return done == 1 })
	// A conflicting row in the same bank forces PRE + ACT.
	c.Read(addrAt(c, Loc{Row: 6}), core.Untagged(func(int64) { done++ }))
	runUntil(t, c, 10000, 20000, func() bool { return done == 2 })
	d := c.DeviceStats()
	if d.Activations() != 2 || d.Precharges != 1 {
		t.Errorf("acts/pres = %d/%d, want 2/1", d.Activations(), d.Precharges)
	}
}

func TestOpenPagePRAFalseHitsPersist(t *testing.T) {
	t.Parallel()
	// Under open-page a partially opened PRA row persists, so a much
	// later read to it false-hits — the policy-sensitivity effect the
	// extension exposes.
	c := newCtl(t, func(cfg *Config) {
		cfg.Policy = OpenPage
		cfg.Scheme = PRA
	})
	c.Write(addrAt(c, Loc{Row: 5, Col: 0}), core.StoreBytes(0, 8))
	cpu := runUntil(t, c, 0, 100000, func() bool { return c.Stats().WritesServed == 1 })
	// Read promptly (before a refresh closes the persisted partial row).
	done := false
	c.Read(addrAt(c, Loc{Row: 5, Col: 3}), core.Untagged(func(int64) { done = true }))
	runUntil(t, c, cpu+1, 100000, func() bool { return done })
	if got := c.Stats().FalseHitRead; got != 1 {
		t.Errorf("false read hits = %d, want 1 (partial row persisted)", got)
	}
}

func TestOpenPageParsing(t *testing.T) {
	t.Parallel()
	p, err := ParsePolicy("open")
	if err != nil || p != OpenPage {
		t.Fatalf("ParsePolicy(open) = %v, %v", p, err)
	}
	if OpenPage.String() != "open-page" {
		t.Error("OpenPage string wrong")
	}
}
