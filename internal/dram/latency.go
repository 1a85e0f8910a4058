package dram

import "pradram/internal/core"

// LatTerm indexes one constraint family contributing to a command's ready
// time. The controller's latency-attribution layer (memctrl) uses the
// per-term deadlines to blame each cycle a request waited on the component
// that was holding the command back; ActReadyAt / ReadReadyAt /
// WriteReadyAt are computed *from* these terms, so the decomposition can
// never drift out of lockstep with the readiness rules it explains.
type LatTerm uint8

const (
	// TermBank is the bank FSM itself: PRE/ACT serialization (tRP, tRC,
	// RFM blocking) before an ACT, and the RAS-to-CAS window (tRCD, plus
	// the PRA mask cycle) before a column command.
	TermBank LatTerm = iota
	// TermTiming covers the rank- and channel-shared constraints: tRRD and
	// the weighted tFAW window, tCCD on the shared column path, tWTR
	// write-to-read turnaround, the one-cycle command/address bus, and
	// data-bus contention (burst overlap and tRTRS turnaround gaps).
	TermTiming
	// TermRefresh is the end of an in-flight refresh blocking the rank.
	TermRefresh
	// TermPD is the power-down exit window (tXP / tXPDLL / tXS).
	TermPD
	// NumLatTerms sizes LatTerms.
	NumLatTerms
)

// LatTerms holds one absolute ready deadline per constraint family. A term
// at or before the query cycle was not blocking; the command's ready cycle
// is the maximum over the terms (and the query cycle itself).
type LatTerms [NumLatTerms]int64

// maxTerms folds a term set back into the single ready cycle.
func maxTerms(now int64, t *LatTerms) int64 {
	at := now
	for _, d := range t {
		if d > at {
			at = d
		}
	}
	return at
}

// ActLatTerms fills t with the per-term deadlines gating an ACT of the
// given mask on bank (r,b) and returns the resulting ready cycle — the
// same value as ActReadyAt, which is defined in terms of this method.
func (c *Channel) ActLatTerms(now int64, r, b int, mask core.Mask, halfDRAM bool, t *LatTerms) int64 {
	rk, bk := c.rank(r), c.bank(r, b)
	w := core.ActivationWeight(mask, halfDRAM)
	if c.NoWeightedFAW {
		w = 1
	}
	t[TermBank] = bk.actAllowed
	t[TermTiming] = max(rk.rrdAllowed, c.fawReadyAt(rk, w), c.cmdFree)
	t[TermRefresh] = rk.refUntil
	t[TermPD] = c.pdExitAt(rk, now)
	return maxTerms(now, t)
}

// ReadLatTerms fills t with the per-term deadlines gating a column read on
// bank (r,b) and returns the resulting ready cycle — the same value as
// ReadReadyAt, which is defined in terms of this method. Data-bus
// contention (the burst must fit the bus, including tRTRS gaps) folds into
// TermTiming.
func (c *Channel) ReadLatTerms(now int64, r, b, burstCycles int, t *LatTerms) int64 {
	rk, bk := c.rank(r), c.bank(r, b)
	t[TermBank] = bk.rdAllowed
	t[TermTiming] = max(rk.colAllowed, rk.rdAfterWr, c.cmdFree)
	t[TermRefresh] = rk.refUntil
	t[TermPD] = c.pdExitAt(rk, now)
	at := maxTerms(now, t)
	// The data phase must fit the bus: command time is data start - CL.
	ready := c.busStart(at+int64(c.T.TCAS), BusRead, r) - int64(c.T.TCAS)
	if ready > at {
		t[TermTiming] = ready
	}
	return ready
}

// WriteLatTerms fills t with the per-term deadlines gating a column write
// on bank (r,b) and returns the resulting ready cycle — the same value as
// WriteReadyAt, which is defined in terms of this method.
func (c *Channel) WriteLatTerms(now int64, r, b, burstCycles int, t *LatTerms) int64 {
	rk, bk := c.rank(r), c.bank(r, b)
	t[TermBank] = bk.wrAllowed
	t[TermTiming] = max(rk.colAllowed, c.cmdFree)
	t[TermRefresh] = rk.refUntil
	t[TermPD] = c.pdExitAt(rk, now)
	at := maxTerms(now, t)
	ready := c.busStart(at+int64(c.T.CWL), BusWrite, r) - int64(c.T.CWL)
	if ready > at {
		t[TermTiming] = ready
	}
	return ready
}

// RankReady is the rank- and channel-wide part of command readiness for
// one rank at one cycle: the command bus, refresh, power-down exit, tRRD,
// the tFAW window, tCCD, tWTR and the data bus. Every ready cycle is a
// maximum over its terms, so a scheduler that asks about many banks of one
// rank in one cycle starts the rank once (RankReadyAt) and folds in each
// bank's own term (ActReadyFrom, ReadReadyFrom, WriteReadyFrom,
// PreReadyFrom); the result equals the matching *ReadyAt query exactly.
// The column terms are computed on their first use, so a query about a
// single bank costs about one *ReadyAt. A RankReady is stale after any
// command to the channel or a Wake.
type RankReady struct {
	rank   int
	shared int64 // now, command bus, refresh, power-down exit: every command's floor
	act    int64 // shared and tRRD
	rd, wr int64 // shared, tCCD, tWTR (reads) and the data bus; unsetTerm until used
}

// unsetTerm marks a RankReady column term not computed yet (ready cycles
// are never negative).
const unsetTerm = -1

// RankReadyAt starts rank r's shared readiness terms at cycle now in rr.
func (c *Channel) RankReadyAt(now int64, r int, rr *RankReady) {
	rk := c.rank(r)
	shared := max(now, c.cmdFree, rk.refUntil, c.pdExitAt(rk, now))
	*rr = RankReady{rank: r, shared: shared, act: max(shared, rk.rrdAllowed), rd: unsetTerm, wr: unsetTerm}
}

// ActReadyFrom returns ActReadyAt(now, rr's rank, b, mask, halfDRAM) for
// the cycle rr was started at. The tFAW window is walked only when the
// activation would overfill it (the device keeps the window's summed
// weight).
func (c *Channel) ActReadyFrom(rr *RankReady, b int, mask core.Mask, halfDRAM bool) int64 {
	at := max(rr.act, c.bank(rr.rank, b).actAllowed)
	w := core.ActivationWeight(mask, halfDRAM)
	if c.NoWeightedFAW {
		w = 1
	}
	if rk := c.rank(rr.rank); rk.fawLoad+w > 4 {
		at = max(at, c.fawReadyAt(rk, w))
	}
	return at
}

// ReadReadyFrom returns ReadReadyAt for bank b of rr's rank at rr's cycle.
func (c *Channel) ReadReadyFrom(rr *RankReady, b int) int64 {
	if rr.rd == unsetTerm {
		// The data phase must fit the bus; busStart is itself a maximum,
		// so the bus term folds into the rank floor.
		rk, cas := c.rank(rr.rank), int64(c.T.TCAS)
		rr.rd = c.busStart(max(rr.shared, rk.colAllowed, rk.rdAfterWr)+cas, BusRead, rr.rank) - cas
	}
	return max(rr.rd, c.bank(rr.rank, b).rdAllowed)
}

// WriteReadyFrom returns WriteReadyAt for bank b of rr's rank at rr's
// cycle.
func (c *Channel) WriteReadyFrom(rr *RankReady, b int) int64 {
	if rr.wr == unsetTerm {
		rk, cwl := c.rank(rr.rank), int64(c.T.CWL)
		rr.wr = c.busStart(max(rr.shared, rk.colAllowed)+cwl, BusWrite, rr.rank) - cwl
	}
	return max(rr.wr, c.bank(rr.rank, b).wrAllowed)
}

// PreReadyFrom returns PreReadyAt for bank b of rr's rank at rr's cycle.
func (c *Channel) PreReadyFrom(rr *RankReady, b int) int64 {
	return max(rr.shared, c.bank(rr.rank, b).preAllowed)
}
