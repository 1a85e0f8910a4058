package memctrl

// Parallel-in-time ticking (DESIGN.md §4i): channels are independent
// discrete-event islands — every field a chanCtl.tick touches is owned by
// that channel (its queues, FSMs, dram.Channel, power accumulator; cfg and
// the address map are read-only) — EXCEPT when a read completes and its
// done.Fn callback re-enters the front end (cache fill, writeback spawn,
// possibly a re-entrant Write into any channel). Sequential semantics are
// therefore fixed entirely by where completions fire, and the engine's job
// each DRAM tick reduces to a conservative lookahead question: which
// prefix of channels provably fires no front-end-visible completion this
// tick, or fires one only at the very end of its tick?
//
// Per tick the master classifies each channel, in index order, as:
//
//   - silent: cannot invoke any done.Fn this tick. Proof obligations, in
//     tick order: no pending write-forwarded reads (they complete at the
//     top of the tick); nextWake > mem (the tick early-returns before
//     scheduling); empty read queue (only read columns and forwards call
//     back, and the read queue cannot grow mid-tick — front-end enqueues
//     happen between ticks, and re-entrant fills spawn only writes);
//     rfmPending (the pass is refresh/RFM-only); or no open bank (a
//     column needs a row already open at scan time — an ACT issued this
//     tick ends the pass before any column).
//   - tail-completing: may complete a read column. That callback is the
//     last action of the tick (the pass returns immediately after), so
//     deferring it past the tick barrier is invisible to the channel
//     itself, and replaying it before any higher-indexed channel ticks
//     preserves the sequential cross-channel order exactly.
//   - inline: has pending forwards. Forward completions fire before the
//     nextWake check and the scheduling pass, and their fill callbacks
//     can re-enter this same channel mid-tick (a spawned write disarms
//     nextWake), so the channel must tick on the master with callbacks
//     inline, after every lower-indexed channel.
//
// The dispatch plan is then: the longest prefix of silent channels plus
// at most one trailing tail-completing channel ticks concurrently on the
// pdes.Team (completions captured into per-channel rings); the master
// drains the rings in channel order at the barrier; the remaining
// channels tick sequentially inline. Cross-channel visibility matches the
// sequential loop by construction: a completion on channel i is applied
// before any channel j > i ticks (sequential same-tick visibility) and
// after every channel j <= i ticked (they would have seen it only next
// tick anyway, since request arrival stamps are lastMem+1).
//
// Runs with the event trace enabled fall back to sequential ticking —
// events interleave through one shared ring whose order is part of the
// bit-identity contract (AttachObs calls DisableParallel). The recorder,
// probes, checkpointing, and CatchUp all run between ticks, when the
// workers are parked, so they need no changes.

import (
	"runtime"

	"pradram/internal/core"
	"pradram/internal/pdes"
)

// parEngine drives the per-tick conservative dispatch over a worker team.
type parEngine struct {
	c    *Controller
	team *pdes.Team

	parTicks     int64 // ticks that dispatched >= 2 channels concurrently
	parChanTicks int64 // channel-ticks executed on the team
}

// EnableParallel switches the controller to parallel-in-time ticking over
// workers goroutine shares (the caller included; workers <= 0 selects
// runtime.GOMAXPROCS(0), and the count is clamped to the channel count).
// It is a no-op — the controller stays sequential — when fewer than two
// shares would result (single-channel config, or auto on a single-CPU
// process). Results are bit-identical either way; see the package comment
// in pdes.go. Call before the first Tick; not safe mid-run.
func (c *Controller) EnableParallel(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(c.chans) {
		workers = len(c.chans)
	}
	if workers < 2 {
		return
	}
	p := &parEngine{c: c}
	p.team = pdes.NewTeam(workers, func(share int, mem, end int64) {
		for i := share; i < int(end); i += workers {
			c.chans[i].tick(mem)
		}
	})
	for _, cc := range c.chans {
		// At most one read column completes per channel per tick (a
		// scheduling pass ends at the first issued command), so the ring
		// never grows past 1; the slack is free insurance.
		cc.deferred = pdes.NewRing(4)
	}
	c.par = p
}

// DisableParallel reverts to sequential ticking, releasing any worker
// goroutines. Used by AttachObs when the event trace is on (shared-ring
// event order is part of the bit-identity contract) and by -seq paths.
func (c *Controller) DisableParallel() {
	if c.par == nil {
		return
	}
	c.par.team.Stop()
	c.par = nil
	for _, cc := range c.chans {
		cc.deferring = false
		cc.deferred = nil
	}
}

// StopWorkers parks and releases the engine's worker goroutines, keeping
// parallel mode enabled: the next Tick restarts them lazily. Run loops
// call this when a measurement phase ends so idle Systems hold no
// goroutines. No-op on sequential controllers.
func (c *Controller) StopWorkers() {
	if c.par != nil {
		c.par.team.Stop()
	}
}

// ParallelEnabled reports whether the controller ticks in parallel mode.
func (c *Controller) ParallelEnabled() bool { return c.par != nil }

// ParallelWorkers returns the worker-share count (0 when sequential).
func (c *Controller) ParallelWorkers() int {
	if c.par == nil {
		return 0
	}
	return c.par.team.Size()
}

// ParallelTicks returns how many DRAM ticks dispatched at least two
// channels concurrently — the non-vacuity counter the identity tests
// assert on. Cumulative over the controller's lifetime.
func (c *Controller) ParallelTicks() int64 {
	if c.par == nil {
		return 0
	}
	return c.par.parTicks
}

// ParallelChannelTicks returns how many channel-ticks ran on the team.
func (c *Controller) ParallelChannelTicks() int64 {
	if c.par == nil {
		return 0
	}
	return c.par.parChanTicks
}

// couldCompleteColumn conservatively reports whether this channel's tick
// at mem could complete a read column (the only mid-pass completion
// source besides forwards, which the caller checks separately). May
// return true when no completion will actually occur; must never return
// false when one could. See the proof obligations in the file comment.
func (cc *chanCtl) couldCompleteColumn(mem int64) bool {
	return len(cc.readQ.reqs) > 0 && cc.nextWake <= mem && !cc.rfmPending &&
		cc.ch.OpenBankCount() > 0
}

// tick runs one DRAM tick over all channels under the dispatch plan
// described in the file comment, bit-identical to the sequential loop.
func (p *parEngine) tick(mem int64) {
	chans := p.c.chans
	parEnd := len(chans) // channels [0, parEnd) tick concurrently
	for i, cc := range chans {
		if len(cc.forwards) > 0 {
			parEnd = i // inline: completions fire pre-scheduling
			break
		}
		if cc.couldCompleteColumn(mem) {
			parEnd = i + 1 // tail-completing: defer past the barrier
			break
		}
	}

	if parEnd < 2 {
		for _, cc := range chans {
			cc.tick(mem)
		}
		return
	}

	for i := 0; i < parEnd; i++ {
		chans[i].deferring = true
	}
	p.team.Do(mem, int64(parEnd))
	p.parTicks++
	p.parChanTicks += int64(parEnd)
	for i := 0; i < parEnd; i++ {
		cc := chans[i]
		cc.deferring = false
		cc.deferred.Drain() // canonical order: channel index, then capture order
	}
	for i := parEnd; i < len(chans); i++ {
		chans[i].tick(mem)
	}
}

// complete fires (or, mid-parallel-phase, defers) a request completion.
// Both completion sites — forward completions and read columns — funnel
// through here so the deferral decision has one audited choke point. The
// core.Done is passed by value: the captured Fn survives the request's
// release back to the pool.
func (cc *chanCtl) complete(d core.Done, at int64) {
	if cc.deferring {
		cc.deferred.Push(pdes.Msg{Fn: d.Fn, At: at})
		return
	}
	d.Fn(at)
}
