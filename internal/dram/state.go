package dram

import (
	"pradram/internal/checkpoint"
	"pradram/internal/core"
)

// Checkpointing (DESIGN.md §4e). The channel serializes bus/command state
// and the per-rank, per-bank timing windows. Statistics, per-bank command
// tallies, and accumulated energy are NOT serialized: checkpoints are
// taken at the warmup boundary, immediately after ResetStats (which also
// flushes pending background spans, so bgFrom == acctUpTo there — but the
// fields are written anyway to keep the round trip exact at any point).

// SaveState appends the channel's dynamic state.
func (c *Channel) SaveState(w *checkpoint.Writer) {
	w.I64(c.cmdFree)
	w.I64(c.busFree)
	w.U8(uint8(c.busDir))
	w.Int(c.busRank)
	w.I64(c.acctUpTo)
	for r := range c.ranks {
		rk := &c.ranks[r]
		w.I64(rk.rrdAllowed)
		w.I64(rk.colAllowed)
		w.I64(rk.rdAfterWr)
		w.Count(len(rk.faw))
		for _, e := range rk.faw {
			w.I64(e.t)
			w.F64(e.w)
		}
		w.I64(rk.refUntil)
		w.I64(rk.nextRefresh)
		w.Int(rk.refBank)
		w.U8(uint8(rk.pd))
		w.I64(rk.pdEnteredAt)
		w.I64(rk.pdExit)
		w.I64(rk.pdReady)
		w.I64(rk.bgFrom)
		for b := range rk.banks {
			bk := &rk.banks[b]
			w.Bool(bk.open)
			w.Int(bk.row)
			w.U8(uint8(bk.mask))
			w.I64(bk.actAllowed)
			w.I64(bk.rdAllowed)
			w.I64(bk.wrAllowed)
			w.I64(bk.preAllowed)
		}
	}
	// Per-row activation counter tables (rowcounter.go): counter contents
	// are simulation state, not statistics — a restored run must alert and
	// RFM at exactly the cycles the monolithic run would (ckptFormat v3).
	// Tracked rows serialize in ascending row order for determinism.
	w.Bool(c.rowCtr != nil)
	if c.rowCtr != nil {
		for i := range c.rowCtr.tables {
			t := &c.rowCtr.tables[i]
			rows := c.rowCtr.sortedRows(i)
			w.Count(len(rows))
			for _, row := range rows {
				w.Int(row)
				w.I64(t.counts[row])
			}
			w.I64(t.spill)
		}
	}
}

// RestoreState decodes a SaveState payload into temporaries and returns a
// commit that installs it; on error the channel is untouched. openCount and
// openBanks are recomputed from the bank states rather than trusted from
// the payload, and the commit marks every bank changed.
func (c *Channel) RestoreState(r *checkpoint.Reader) (func(), error) {
	cmdFree := r.I64()
	busFree := r.I64()
	busDir := BusDir(r.U8())
	if busDir > BusWrite {
		r.Fail("dram: bus direction %d", busDir)
	}
	busRank := r.Int()
	if busRank < 0 || busRank >= c.G.Ranks {
		r.Fail("dram: bus rank %d of %d", busRank, c.G.Ranks)
	}
	acctUpTo := r.I64()
	ranks := make([]rankState, len(c.ranks))
	var openBanks uint64
	for ri := range ranks {
		rk := &ranks[ri]
		rk.rrdAllowed = r.I64()
		rk.colAllowed = r.I64()
		rk.rdAfterWr = r.I64()
		rk.faw = make([]fawEntry, r.Count())
		for i := range rk.faw {
			rk.faw[i] = fawEntry{t: r.I64(), w: r.F64()}
			rk.fawLoad += rk.faw[i].w
		}
		rk.refUntil = r.I64()
		rk.nextRefresh = r.I64()
		rk.refBank = r.Int()
		if rk.refBank < 0 || rk.refBank >= c.G.Banks {
			r.Fail("dram: rank %d refresh bank %d of %d", ri, rk.refBank, c.G.Banks)
		}
		rk.pd = PDState(r.U8())
		if rk.pd > PDSelfRefresh {
			r.Fail("dram: rank %d power-down state %d", ri, rk.pd)
		}
		rk.pdEnteredAt = r.I64()
		rk.pdExit = r.I64()
		rk.pdReady = r.I64()
		rk.bgFrom = r.I64()
		rk.banks = make([]bankState, c.G.Banks)
		for bi := range rk.banks {
			bk := &rk.banks[bi]
			bk.open = r.Bool()
			bk.row = r.Int()
			bk.mask = core.Mask(r.U8())
			bk.actAllowed = r.I64()
			bk.rdAllowed = r.I64()
			bk.wrAllowed = r.I64()
			bk.preAllowed = r.I64()
			if bk.open {
				if bk.row < 0 || bk.row >= c.G.Rows {
					r.Fail("dram: rank %d bank %d open row %d of %d", ri, bi, bk.row, c.G.Rows)
				}
				if bk.mask == 0 {
					r.Fail("dram: rank %d bank %d open with empty mask", ri, bi)
				}
				rk.openCount++
				openBanks |= 1 << uint(ri*c.G.Banks+bi)
			}
		}
		switch rk.pd {
		case PDPrechargeFast, PDPrechargeSlow, PDSelfRefresh:
			if rk.openCount > 0 {
				r.Fail("dram: rank %d in %v with %d open banks", ri, rk.pd, rk.openCount)
			}
		case PDActive:
			if rk.openCount == 0 {
				r.Fail("dram: rank %d in active power-down with no open banks", ri)
			}
		}
	}
	tracking := r.Bool()
	if tracking != (c.rowCtr != nil) {
		r.Fail("dram: checkpoint row tracking %v, channel has %v", tracking, c.rowCtr != nil)
	}
	var rowCtr *rowCounters
	if tracking && r.Err() == nil {
		rowCtr = newRowCounters(c.rowCtr.cap, c.G.Ranks*c.G.Banks)
		for i := range rowCtr.tables {
			t := &rowCtr.tables[i]
			n := r.Count()
			if n > rowCtr.cap {
				r.Fail("dram: row counter table %d holds %d of %d rows", i, n, rowCtr.cap)
				n = 0
			}
			prev := -1
			for j := 0; j < n; j++ {
				row := r.Int()
				cnt := r.I64()
				if row <= prev || row >= c.G.Rows {
					r.Fail("dram: row counter table %d row %d (prev %d, rows %d)", i, row, prev, c.G.Rows)
				}
				if cnt <= 0 {
					r.Fail("dram: row counter table %d row %d count %d", i, row, cnt)
				}
				t.counts[row] = cnt
				prev = row
			}
			if t.spill = r.I64(); t.spill < 0 {
				r.Fail("dram: row counter table %d spill %d", i, t.spill)
			}
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return func() {
		c.cmdFree = cmdFree
		c.busFree = busFree
		c.busDir = busDir
		c.busRank = busRank
		c.acctUpTo = acctUpTo
		c.ranks = ranks
		c.openBanks = openBanks
		c.changed = ^uint64(0)
		if tracking {
			c.rowCtr = rowCtr
		}
	}, nil
}
