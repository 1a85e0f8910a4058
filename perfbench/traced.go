package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pradram/internal/cache"
	"pradram/internal/core"
	"pradram/internal/cpu"
	"pradram/internal/memctrl"
	"pradram/internal/power"
	"pradram/internal/sim"
	"pradram/internal/workload"
)

// The traced run assembles a system from the layers' own constructors,
// exactly as sim.New does, and drives it with a copy of sim.System's run
// loop. Every call across a layer boundary is counted; on a fixed
// pseudo-random 1-in-sampleEvery share of executed ticks each call is also
// timed. A clock read costs tens of nanoseconds and the loop executes
// millions of ticks, so timing every call would trace a different program.
// The run must return a Result bit-identical to sim.RunOne's, or it traced
// a different program anyway.

const (
	sampleEvery = 32   // executed ticks per timed tick, on average
	spanCap     = 4096 // spans kept for the written-out span sample
)

// boundary aggregates one kind of call across a layer boundary.
type boundary struct {
	calls   int64 // every call
	sampled int64 // calls made during timed ticks
	ns      int64 // host time of the sampled calls, clock cost removed
}

// est scales the sampled time up to every call, in host seconds.
func (b *boundary) est() float64 {
	if b.sampled == 0 {
		return 0
	}
	return float64(b.ns) / float64(b.sampled) * float64(b.calls) / 1e9
}

func (b *boundary) nsPerCall() float64 {
	if b.sampled == 0 {
		return 0
	}
	return float64(b.ns) / float64(b.sampled)
}

type spanRec struct {
	Layer string
	Start int64
	Dur   int64
}

// tracer holds the counters and the span sample of one traced run.
type tracer struct {
	base     time.Time
	clockNs  int64 // calibrated cost of one clock read
	spanNs   int64 // calibrated cost of one whole timed child call's bookkeeping
	on       bool  // the current tick is timed
	rng      uint64
	spans    []spanRec
	spanNext int

	tick                                     boundary // one run-loop iteration
	gen, load, store, read, write, fill      boundary
	coreTick, coreNext, hierTick, hierNext   boundary
	ctrlTick, ctrlNext, ctrlSkip, ctrlCatch  boundary
	next                                     boundary // trace.Stream.Next
	portRejects, backendRejects, writebacks  int64
	ticks, skipped, cycles, retired, samples int64
	// ended counts timed spans closed so far; its growth across a call is
	// the call's timed descendants, whose cost end removes from it.
	ended int64
}

func newTracer() *tracer {
	t := &tracer{base: time.Now(), rng: 0x9e3779b97f4a7c15}
	// A timed call's own interval holds about one clock read. Its parent's
	// interval holds the child's whole bookkeeping: two reads and end.
	// Calibrate both as means over many back-to-back calls, the latter on a
	// scratch tracer so the calibration spans are not recorded.
	const n = 100_000
	t0 := t.now()
	for i := 0; i < n; i++ {
		t.now()
	}
	t.clockNs = (t.now() - t0) / n
	scratch := &tracer{base: t.base}
	var b boundary
	t0 = t.now()
	for i := 0; i < n; i++ {
		scratch.end(&b, "", scratch.now(), 0)
	}
	t.spanNs = (t.now() - t0) / n
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// nextTick decides whether the tick about to execute is timed. The choice
// is pseudo-random rather than every Nth tick so the sample does not lock
// onto the controller's 4-cycle DRAM clock phase.
func (t *tracer) nextTick() {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	t.on = t.rng%sampleEvery == 0
	if t.on {
		t.samples++
	}
}

// end closes a timed call that started at t0 and had nested timed
// children, removing the timing cost from its duration.
func (t *tracer) end(b *boundary, layer string, t0 int64, children int64) {
	t1 := t.now()
	d := t1 - t0 - t.clockNs - t.spanNs*children
	if d < 0 {
		d = 0
	}
	b.sampled++
	b.ns += d
	t.ended++
	if len(t.spans) < spanCap {
		t.spans = append(t.spans, spanRec{layer, t0, t1 - t0})
	} else {
		t.spans[t.spanNext] = spanRec{layer, t0, t1 - t0}
		t.spanNext = (t.spanNext + 1) % spanCap
	}
}

// genProbe wraps a core's cpu.Generator (the workload layer).
type genProbe struct {
	t *tracer
	g cpu.Generator
}

func (p *genProbe) Name() string { return p.g.Name() }

func (p *genProbe) Next(op *cpu.Op) {
	p.t.gen.calls++
	if !p.t.on {
		p.g.Next(op)
		return
	}
	t0 := p.t.now()
	p.g.Next(op)
	p.t.end(&p.t.gen, "workload.Next", t0, 0)
}

// portProbe wraps the cpu.MemPort the cores issue to (the cache layer).
type portProbe struct {
	t *tracer
	h *cache.Hierarchy
}

func (p *portProbe) Load(coreID int, addr uint64, now int64, done core.Done) bool {
	p.t.load.calls++
	if !p.t.on {
		return p.t.reject(p.h.Load(coreID, addr, now, done), &p.t.portRejects)
	}
	t0, n0 := p.t.now(), p.t.ended
	ok := p.h.Load(coreID, addr, now, done)
	p.t.end(&p.t.load, "cache.Load", t0, p.t.ended-n0)
	return p.t.reject(ok, &p.t.portRejects)
}

func (p *portProbe) Store(coreID int, addr uint64, mask core.ByteMask, now int64, done core.Done) bool {
	p.t.store.calls++
	if !p.t.on {
		return p.t.reject(p.h.Store(coreID, addr, mask, now, done), &p.t.portRejects)
	}
	t0, n0 := p.t.now(), p.t.ended
	ok := p.h.Store(coreID, addr, mask, now, done)
	p.t.end(&p.t.store, "cache.Store", t0, p.t.ended-n0)
	return p.t.reject(ok, &p.t.portRejects)
}

func (t *tracer) reject(ok bool, n *int64) bool {
	if !ok {
		*n++
	}
	return ok
}

// backendProbe wraps the cache.Backend the hierarchy issues to (the
// memory controller).
type backendProbe struct {
	t *tracer
	c *memctrl.Controller
}

func (p *backendProbe) Read(addr uint64, done core.Done) bool {
	p.t.read.calls++
	// The fill callback runs inside the controller's Tick but is the
	// cache's work (L2/L1 install, waking the waiting loads), so it is
	// timed as a cache span of its own. The tag, which only checkpoints
	// read, is kept.
	t, fn := p.t, done.Fn
	done.Fn = func(at int64) {
		t.fill.calls++
		if !t.on {
			fn(at)
			return
		}
		t0, n0 := t.now(), t.ended
		fn(at)
		t.end(&t.fill, "cache.fill", t0, t.ended-n0)
	}
	if !p.t.on {
		return p.t.reject(p.c.Read(addr, done), &p.t.backendRejects)
	}
	t0, n0 := p.t.now(), p.t.ended
	ok := p.c.Read(addr, done)
	p.t.end(&p.t.read, "memctrl.Read", t0, p.t.ended-n0)
	return p.t.reject(ok, &p.t.backendRejects)
}

func (p *backendProbe) Write(addr uint64, mask core.ByteMask) bool {
	p.t.write.calls++
	var ok bool
	if !p.t.on {
		ok = p.c.Write(addr, mask)
	} else {
		t0 := p.t.now()
		ok = p.c.Write(addr, mask)
		p.t.end(&p.t.write, "memctrl.Write", t0, 0)
	}
	if ok {
		p.t.writebacks++
	}
	return p.t.reject(ok, &p.t.backendRejects)
}

// tracedSystem mirrors sim.System for the configurations the benchmark
// runs: a named workload under a scheme and policy, with the default
// sequential, skipping run loop and nothing else switched on. A config
// field it does not mirror changes the Result, which the output check then
// rejects.
type tracedSystem struct {
	cfg   sim.Config
	t     *tracer
	ctrl  *memctrl.Controller
	hier  *cache.Hierarchy
	cores []*cpu.Core
	apps  []string
	cycle int64
}

// newTraced mirrors sim.New.
func newTraced(cfg sim.Config, t *tracer) (*tracedSystem, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ActiveCores == 0 {
		cfg.ActiveCores = cfg.Cores
	}
	cfg.Workload = workload.Canonical(cfg.Workload)

	mcfg := memctrl.DefaultConfig()
	mcfg.Scheme = cfg.Scheme
	mcfg.Policy = cfg.Policy
	if cfg.Policy == memctrl.RestrictedClose {
		mcfg.Mapping = memctrl.LineInterleaved
	}
	ctrl, err := memctrl.New(mcfg)
	if err != nil {
		return nil, err
	}
	s := &tracedSystem{cfg: cfg, t: t, ctrl: ctrl}

	ccfg := cache.DefaultConfig(cfg.ActiveCores)
	ccfg.RowKey = ctrl.RowKey
	s.hier, err = cache.New(ccfg, &backendProbe{t: t, c: ctrl})
	if err != nil {
		return nil, err
	}
	apps, err := workload.Set(cfg.Workload, cfg.Cores)
	if err != nil {
		return nil, err
	}
	s.apps = apps[:cfg.ActiveCores]
	port := &portProbe{t: t, h: s.hier}
	for i, app := range s.apps {
		region := workload.Region{Base: uint64(i) << 30, Bytes: 1 << 30}
		gen, err := workload.New(app, i, cfg.Seed, region)
		if err != nil {
			return nil, err
		}
		c, err := cpu.New(i, cfg.CPU, &genProbe{t: t, g: gen}, port)
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, c)
	}
	return s, nil
}

func (s *tracedSystem) maxTicks() int64 {
	if s.cfg.MaxCycles != 0 {
		return s.cfg.MaxCycles
	}
	return (s.cfg.InstrPerCore+s.cfg.WarmupPerCore)*2000 + 10_000_000
}

// step executes one iteration of sim.System's Warmup/Measure loops: the
// tick of every component, then the fast-forward decision when more
// reports that cores still owe instructions. onReach reports cores at or
// past target after their tick.
func (s *tracedSystem) step(target int64, onReach func(i int), more func() bool) error {
	t := s.t
	t.nextTick()
	t.ticks++
	t.tick.calls++
	if !t.on {
		return s.stepInner(target, onReach, more)
	}
	t0, n0 := t.now(), t.ended
	err := s.stepInner(target, onReach, more)
	t.end(&t.tick, "sim.step", t0, t.ended-n0)
	return err
}

func (s *tracedSystem) stepInner(target int64, onReach func(i int), more func() bool) error {
	t := s.t
	cycle := s.cycle

	t.hierTick.calls++
	if t.on {
		t0, n0 := t.now(), t.ended
		s.hier.Tick(cycle)
		t.end(&t.hierTick, "cache.Tick", t0, t.ended-n0)
	} else {
		s.hier.Tick(cycle)
	}
	for i, c := range s.cores {
		if c.Quiescent() {
			c.SkipCycles(1)
			continue
		}
		t.coreTick.calls++
		if t.on {
			t0, n0 := t.now(), t.ended
			c.Tick(cycle)
			t.end(&t.coreTick, "cpu.Tick", t0, t.ended-n0)
		} else {
			c.Tick(cycle)
		}
		if c.Retired >= target {
			onReach(i)
		}
	}
	t.ctrlTick.calls++
	if t.on {
		t0, n0 := t.now(), t.ended
		s.ctrl.Tick(cycle)
		t.end(&t.ctrlTick, "memctrl.Tick", t0, t.ended-n0)
	} else {
		s.ctrl.Tick(cycle)
	}
	s.cycle++
	if !more() {
		return nil
	}
	var err error
	s.cycle, err = s.fastForward(s.cycle)
	return err
}

// fastForward mirrors sim.System.fastForward without telemetry epochs.
func (s *tracedSystem) fastForward(next int64) (int64, error) {
	t := s.t
	now := next - 1
	target := int64(core.FarFuture)
	for _, c := range s.cores {
		t.coreNext.calls++
		var v int64
		if t.on {
			t0 := t.now()
			v = c.NextEvent(now)
			t.end(&t.coreNext, "cpu.NextEvent", t0, 0)
		} else {
			v = c.NextEvent(now)
		}
		if v < target {
			if v <= next {
				return next, nil
			}
			target = v
		}
	}
	t.hierNext.calls++
	var h, m int64
	if t.on {
		t0 := t.now()
		h = s.hier.NextEvent(now)
		t.end(&t.hierNext, "cache.NextEvent", t0, 0)
		t0 = t.now()
		m = s.ctrl.NextEvent(now)
		t.end(&t.ctrlNext, "memctrl.NextEvent", t0, 0)
	} else {
		h = s.hier.NextEvent(now)
		m = s.ctrl.NextEvent(now)
	}
	t.ctrlNext.calls++
	target = min(target, h, m)
	if target >= core.FarFuture {
		return 0, fmt.Errorf("traced run: all components quiescent at cycle %d", now)
	}
	if target <= next {
		return next, nil
	}
	t.ctrlSkip.calls++
	if t.on {
		t0 := t.now()
		s.ctrl.SkipTo(target)
		t.end(&t.ctrlSkip, "memctrl.SkipTo", t0, 0)
	} else {
		s.ctrl.SkipTo(target)
	}
	delta := target - next
	t.skipped += delta
	for _, c := range s.cores {
		c.SkipCycles(delta)
	}
	return target, nil
}

func (s *tracedSystem) catchUp(cycle int64) {
	t := s.t
	t.ctrlCatch.calls++
	t0 := t.now()
	s.ctrl.CatchUp(cycle)
	t.end(&t.ctrlCatch, "memctrl.CatchUp", t0, 0)
}

// run mirrors sim.System.Warmup followed by Measure.
func (s *tracedSystem) run() (sim.Result, error) {
	maxTicks := s.maxTicks()
	if warm := s.cfg.WarmupPerCore; warm > 0 {
		done := make([]bool, len(s.cores))
		remaining := len(s.cores)
		for remaining > 0 {
			if s.t.ticks >= maxTicks {
				return sim.Result{}, fmt.Errorf("traced run: warmup made no progress")
			}
			err := s.step(warm, func(i int) {
				if !done[i] {
					done[i] = true
					remaining--
				}
			}, func() bool { return remaining > 0 })
			if err != nil {
				return sim.Result{}, err
			}
		}
		s.catchUp(s.cycle)
		for _, c := range s.cores {
			s.t.retired += c.Retired
			c.ResetStats()
		}
		s.hier.ResetStats()
		s.ctrl.ResetStats()
	}

	target := s.cfg.InstrPerCore
	finish := make([]int64, len(s.cores))
	for i := range finish {
		finish[i] = -1
	}
	remaining := len(s.cores)
	start := s.cycle
	for remaining > 0 {
		if s.t.ticks >= maxTicks {
			return sim.Result{}, fmt.Errorf("traced run: no progress")
		}
		cycle := s.cycle
		err := s.step(target, func(i int) {
			if finish[i] < 0 {
				finish[i] = cycle - start + 1
				remaining--
			}
		}, func() bool { return remaining > 0 })
		if err != nil {
			return sim.Result{}, err
		}
	}
	s.catchUp(s.cycle)
	for _, c := range s.cores {
		s.t.retired += c.Retired
	}
	s.t.cycles = s.cycle

	res := sim.Result{
		Workload: s.cfg.Workload,
		Scheme:   s.cfg.Scheme,
		Policy:   s.cfg.Policy,
		DBI:      s.cfg.DBI,
		Apps:     append([]string(nil), s.apps...),
		Cycles:   s.cycle - start,
		CoreIPC:  make([]float64, len(s.cores)),
		Ctrl:     s.ctrl.Stats(),
		Dev:      s.ctrl.DeviceStats(),
		Cache:    s.hier.Stats,
		Energy:   s.ctrl.Energy(),
		Cal:      power.CalNone(),
	}
	for i := range s.cores {
		res.CoreIPC[i] = float64(target) / float64(finish[i])
	}
	return res, nil
}

// runTraced builds and runs cfg through the traced loop, returning the
// host CPU seconds of the run.
func runTraced(cfg sim.Config) (sim.Result, *tracer, float64, error) {
	t := newTracer()
	s, err := newTraced(cfg, t)
	if err != nil {
		return sim.Result{}, nil, 0, err
	}
	c0 := cpuTime()
	res, err := s.run()
	return res, t, cpuTime() - c0, err
}

// layerMetrics turns the traced run's counters into per-layer metrics.
// Each layer's self time is its spans minus the child spans they contain,
// scaled from the timed ticks to every call. Timing adds a fixed cost to
// every span, so the split is then rescaled to sum to untracedCPU, the
// median untraced CPU time: the self times split the untraced run in the
// proportions the timed ticks measured.
func (t *tracer) layerMetrics(m map[string]float64, res sim.Result, untracedCPU float64) {
	calls := t.coreTick.est() + t.coreNext.est() + t.hierTick.est() + t.hierNext.est() +
		t.ctrlTick.est() + t.ctrlNext.est() + t.ctrlSkip.est()
	self := map[string]float64{
		"workload": t.gen.est(),
		"cpu":      t.coreTick.est() + t.coreNext.est() - t.gen.est() - t.load.est() - t.store.est(),
		"cache":    t.hierTick.est() + t.hierNext.est() + t.load.est() + t.store.est() + t.fill.est() - t.read.est() - t.write.est(),
		"memctrl":  t.ctrlTick.est() + t.ctrlNext.est() + t.ctrlSkip.est() + t.ctrlCatch.est() + t.read.est() + t.write.est() - t.fill.est(),
		"sim":      t.tick.est() - calls,
	}
	total := 0.0
	for k, v := range self {
		self[k] = max(v, 0)
		total += self[k]
	}
	f := ratio(untracedCPU, total)
	for k := range self {
		self[k] *= f
	}
	m["sim.self_s"] = self["sim"]
	m["sim.exec_ticks"] = float64(t.ticks)
	m["sim.skip_ratio"] = ratio(float64(t.skipped), float64(t.cycles))
	m["workload.calls"] = float64(t.gen.calls)
	m["workload.ns_per_call"] = ratio(self["workload"]*1e9, float64(t.gen.calls))
	m["cpu.self_s"] = self["cpu"]
	m["cpu.ns_per_tick"] = ratio(self["cpu"]*1e9, float64(t.coreTick.calls))
	m["cpu.retired"] = float64(t.retired)
	m["cpu.port_rejects"] = float64(t.portRejects)
	m["cache.self_s"] = self["cache"]
	m["cache.ns_per_access"] = ratio(self["cache"]*1e9, float64(t.load.calls+t.store.calls))
	m["cache.writebacks"] = float64(t.writebacks)
	m["cache.backend_rejects"] = float64(t.backendRejects)
	m["memctrl.self_s"] = self["memctrl"]
	m["memctrl.ns_per_tick"] = ratio(self["memctrl"]*1e9, float64(t.ctrlTick.calls))
	m["memctrl.ns_per_request"] = ratio(self["memctrl"]*1e9, float64(t.read.calls+t.write.calls-t.backendRejects))
	cacheStats(m, res)
}

// cacheStats fills the simulated cache and controller statistics of a
// measured window.
func cacheStats(m map[string]float64, res sim.Result) {
	c := res.Cache
	m["cache.l1_miss_rate"] = ratio(float64(c.L1Misses), float64(c.L1Hits+c.L1Misses))
	m["cache.l2_miss_rate"] = ratio(float64(c.L2Misses), float64(c.L2Hits+c.L2Misses))
	ctrlStats(m, res.Ctrl, res.Cycles)
	devStats(m, res.Dev.ActsByGranularity, res.Dev.Refreshes+res.Dev.PerBankRefreshes, res.AvgPowerMW())
}

// writeSpans writes the span sample as Chrome trace-event JSON (loadable
// in ui.perfetto.dev) to path.
func (t *tracer) writeSpans(path string) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{s.Layer, "X", float64(s.Start) / 1e3, float64(s.Dur) / 1e3, 1, 1})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
