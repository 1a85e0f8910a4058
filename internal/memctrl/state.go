package memctrl

import (
	"pradram/internal/checkpoint"
	"pradram/internal/core"
)

// Checkpointing (DESIGN.md §4e). The controller serializes the clock
// stride, the NextEvent cache, and per channel: the DRAM channel state,
// the request queues (verbatim arrival order — FR-FCFS picks the oldest
// candidate, so order is simulation-visible), the forward list,
// drain/refresh/hit bookkeeping, and the wake time. The per-bank queue
// index (reqQueue) is rebuilt from the restored arrival order.
// Statistics and energy are not serialized: checkpoints are taken at the
// warmup boundary, immediately after ResetStats.
//
// Read-request completions point back into the cache hierarchy's MSHR
// entries; they are rebound through the line-id resolver the hierarchy's
// RestoreState returns.

func (cc *chanCtl) saveReq(w *checkpoint.Writer, req *request) {
	w.U8(uint8(req.kind))
	w.Int(req.loc.Channel)
	w.Int(req.loc.Rank)
	w.Int(req.loc.Bank)
	w.Int(req.loc.Row)
	w.Int(req.loc.Col)
	w.U64(cc.am.RowKeyOf(req.loc))
	w.U64(uint64(req.byteMask))
	w.U8(uint8(req.wordMask))
	w.I64(req.arrive)
	if req.kind == core.Read {
		w.U8(uint8(req.done.Tag.Kind))
		w.U64(req.done.Tag.Serial)
	}
	w.Bool(req.activated)
	w.Bool(req.falseHit)
	// Attribution state (latency.go), ckptFormat v4: the sweep frontier
	// and the blame accumulated so far, so a restored run's completed
	// requests report the same breakdowns as the monolithic run's.
	w.I64(req.mark)
	for _, v := range req.brk {
		w.I64(v)
	}
}

// SaveState appends the controller's dynamic state.
func (c *Controller) SaveState(w *checkpoint.Writer) {
	w.I64(c.lastMem)
	w.I64(c.nextMemAt)
	w.Bool(c.active)
	w.I64(c.minWake)
	for _, cc := range c.chans {
		cc.ch.SaveState(w)
		w.Count(len(cc.readQ.reqs))
		for _, req := range cc.readQ.reqs {
			cc.saveReq(w, req)
		}
		w.Count(len(cc.writeQ.reqs))
		for _, req := range cc.writeQ.reqs {
			cc.saveReq(w, req)
		}
		w.Count(len(cc.forwards))
		for _, req := range cc.forwards {
			cc.saveReq(w, req)
		}
		w.Bool(cc.drain)
		for _, n := range cc.hitCount {
			w.Int(n)
		}
		for _, p := range cc.refPending {
			w.Bool(p)
		}
		for _, t := range cc.lastWork {
			w.I64(t)
		}
		w.I64(cc.nextWake)
		// Alert/RFM mitigation FSM (mitigation.go), ckptFormat v3: a
		// restored run must wait out an in-flight back-off and issue the
		// pending RFM exactly like the monolithic run.
		w.Bool(cc.rfmPending)
		w.Int(cc.rfmRank)
		w.Int(cc.rfmBank)
		w.I64(cc.alertUntil)
	}
}

// restoreReq decodes one request for channel cc; fillResolve rebinds read
// completions to the restored MSHR entries.
func (cc *chanCtl) restoreReq(r *checkpoint.Reader, fillResolve func(lineID uint64) (core.Done, bool)) *request {
	req := &request{}
	req.kind = core.AccessKind(r.U8())
	if req.kind != core.Read && req.kind != core.Write {
		r.Fail("memctrl: request kind %d", req.kind)
	}
	req.loc.Channel = r.Int()
	req.loc.Rank = r.Int()
	req.loc.Bank = r.Int()
	req.loc.Row = r.Int()
	req.loc.Col = r.Int()
	r.U64() // row key, derived from loc
	req.byteMask = core.ByteMask(r.U64())
	req.wordMask = core.Mask(r.U8())
	req.arrive = r.I64()
	if req.kind == core.Read {
		kind := core.DoneKind(r.U8())
		serial := r.U64()
		if kind != core.DoneFill {
			r.Fail("memctrl: read completion tag kind %d", kind)
		} else if r.Err() == nil {
			d, ok := fillResolve(serial)
			if !ok {
				r.Fail("memctrl: no in-flight miss for line %#x", serial)
			}
			req.done = d
		}
	}
	req.activated = r.Bool()
	req.falseHit = r.Bool()
	req.mark = r.I64()
	for i := range req.brk {
		req.brk[i] = r.I64()
	}
	if req.mark < req.arrive {
		r.Fail("memctrl: attribution mark %d before arrival %d", req.mark, req.arrive)
	}
	g := cc.cfg.Geom
	if req.loc.Channel != cc.idx || req.loc.Rank < 0 || req.loc.Rank >= g.Ranks ||
		req.loc.Bank < 0 || req.loc.Bank >= g.Banks || req.loc.Row < 0 || req.loc.Row >= g.Rows {
		r.Fail("memctrl: request location %+v out of range on channel %d", req.loc, cc.idx)
	}
	return req
}

// RestoreState decodes a SaveState payload into temporaries and returns a
// commit that installs it; on error the controller is untouched.
func (c *Controller) RestoreState(r *checkpoint.Reader, fillResolve func(lineID uint64) (core.Done, bool)) (func(), error) {
	lastMem := r.I64()
	nextMemAt := r.I64()
	active := r.Bool()
	minWake := r.I64()
	type chanState struct {
		chCommit                func()
		readQ, writeQ, forwards []*request
		drain                   bool
		hitCount                []int
		refPending              []bool
		lastWork                []int64
		nextWake                int64
		rfmPending              bool
		rfmRank, rfmBank        int
		alertUntil              int64
	}
	states := make([]chanState, len(c.chans))
	for i, cc := range c.chans {
		st := &states[i]
		chCommit, err := cc.ch.RestoreState(r)
		if err != nil {
			return nil, err
		}
		st.chCommit = chCommit
		nq := r.Count()
		if nq > c.cfg.ReadQ {
			r.Fail("memctrl: read queue %d of %d", nq, c.cfg.ReadQ)
			nq = 0
		}
		st.readQ = make([]*request, nq)
		for j := range st.readQ {
			st.readQ[j] = cc.restoreReq(r, fillResolve)
		}
		nq = r.Count()
		if nq > c.cfg.WriteQ {
			r.Fail("memctrl: write queue %d of %d", nq, c.cfg.WriteQ)
			nq = 0
		}
		st.writeQ = make([]*request, nq)
		for j := range st.writeQ {
			st.writeQ[j] = cc.restoreReq(r, fillResolve)
		}
		st.forwards = make([]*request, r.Count())
		for j := range st.forwards {
			st.forwards[j] = cc.restoreReq(r, fillResolve)
		}
		st.drain = r.Bool()
		st.hitCount = make([]int, c.cfg.Geom.Ranks*c.cfg.Geom.Banks)
		for j := range st.hitCount {
			st.hitCount[j] = r.Int()
		}
		st.refPending = make([]bool, c.cfg.Geom.Ranks)
		for j := range st.refPending {
			st.refPending[j] = r.Bool()
		}
		st.lastWork = make([]int64, c.cfg.Geom.Ranks)
		for j := range st.lastWork {
			st.lastWork[j] = r.I64()
		}
		st.nextWake = r.I64()
		st.rfmPending = r.Bool()
		st.rfmRank = r.Int()
		st.rfmBank = r.Int()
		st.alertUntil = r.I64()
		if st.rfmPending && (st.rfmRank < 0 || st.rfmRank >= c.cfg.Geom.Ranks ||
			st.rfmBank < 0 || st.rfmBank >= c.cfg.Geom.Banks) {
			r.Fail("memctrl: pending RFM target rank %d bank %d out of range", st.rfmRank, st.rfmBank)
		}
		if st.rfmPending && c.cfg.MitThreshold <= 0 {
			r.Fail("memctrl: pending RFM with mitigation disabled")
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return func() {
		c.lastMem = lastMem
		c.nextMemAt = nextMemAt
		c.active = active
		c.minWake = minWake
		for i, cc := range c.chans {
			st := &states[i]
			st.chCommit()
			cc.restoreQueue(&cc.readQ, st.readQ)
			cc.restoreQueue(&cc.writeQ, st.writeQ)
			cc.forwards = st.forwards
			cc.drain = st.drain
			copy(cc.hitCount, st.hitCount)
			copy(cc.refPending, st.refPending)
			copy(cc.lastWork, st.lastWork)
			cc.nextWake = st.nextWake
			cc.rfmPending = st.rfmPending
			cc.rfmRank = st.rfmRank
			cc.rfmBank = st.rfmBank
			cc.alertUntil = st.alertUntil
			cc.freeReq = nil
		}
	}, nil
}

// restoreQueue installs reqs, in arrival order, as the contents of q and
// rebuilds its bank index. Sequence numbers restart from 1; only their
// order within one queue is ever compared.
func (cc *chanCtl) restoreQueue(q *reqQueue, reqs []*request) {
	q.reqs = reqs[:0] // push re-appends each request in place
	clear(q.banks)
	q.order = q.order[:0]
	q.busy, q.seq = 0, 0
	for _, req := range reqs {
		q.push(req, cc.bankIdx(req.loc.Rank, req.loc.Bank))
	}
}
