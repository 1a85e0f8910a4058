package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"pradram/internal/memctrl"
	"pradram/internal/sim"
	"pradram/internal/trace"
)

// outcome is what one repetition produced, for the output check and the
// throughput metrics.
type outcome struct {
	digest  string // identity of every simulated output; must repeat exactly
	instr   int64  // simulated instructions the repetition covered
	records int64  // trace records replayed (replay only)
}

// benchWorkload is one benchmark workload, built from seeded inputs that were
// generated before any timing started.
type benchWorkload interface {
	// setup builds the program under test (timed as setup_s) and returns
	// the timed section (timed as cpu_s and wall_s), which checks its own
	// outputs.
	setup() (func() (outcome, error), error)
	// traced runs the workload once with per-layer tracing, fills the
	// per-layer metrics it can measure and returns its outcome and host
	// CPU seconds. untracedCPU is the median untraced CPU time.
	traced(m map[string]float64, untracedCPU float64) (outcome, float64, error)
}

// workloadNotes are printed with every report of the workload.
var workloadNotes = map[string]string{
	"campaign_ablation": "caches start mostly cold: the 40k-instruction warmup is split over 4 cores, 10k each",
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"mix2_pra", "alone_linkedlist", "replay_lbm_pra", "campaign_ablation"}

// newWorkload generates the named workload's inputs from seed. Generation
// (the replay's trace capture) happens here, outside every timed section.
func newWorkload(name string, seed uint64) (benchWorkload, error) {
	switch name {
	case "mix2_pra":
		// The BenchmarkProfileRun configuration: 4-core MIX2 under PRA.
		cfg := sim.DefaultConfig("MIX2")
		cfg.Scheme = memctrl.PRA
		cfg.InstrPerCore = 100_000
		cfg.WarmupPerCore = 100_000
		cfg.Seed = seed
		return &closedLoop{cfg: cfg, cores: 4}, nil
	case "alone_linkedlist":
		// An IPC_alone run: one active core of four, baseline scheme.
		cfg := sim.DefaultConfig("LinkedList")
		cfg.ActiveCores = 1
		cfg.InstrPerCore = 8_000_000
		cfg.WarmupPerCore = 2_000_000
		cfg.Seed = seed
		return &closedLoop{cfg: cfg, cores: 1}, nil
	case "replay_lbm_pra":
		return newReplay(seed)
	case "campaign_ablation":
		return newCampaign(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// closedLoop is a full-system run: cores, caches, controller and DRAM.
type closedLoop struct {
	cfg   sim.Config
	cores int64
}

func (w *closedLoop) instr() int64 {
	return (w.cfg.WarmupPerCore + w.cfg.InstrPerCore) * w.cores
}

func (w *closedLoop) setup() (func() (outcome, error), error) {
	sys, err := sim.New(w.cfg)
	if err != nil {
		return nil, err
	}
	return func() (outcome, error) {
		res, err := sys.Run()
		if err != nil {
			return outcome{}, err
		}
		if err := checkResult(res); err != nil {
			return outcome{}, err
		}
		return outcome{digest: digest(res), instr: w.instr()}, nil
	}, nil
}

// checkResult rejects a Result no correct run can produce.
func checkResult(res sim.Result) error {
	for i, ipc := range res.CoreIPC {
		if !(ipc > 0) || math.IsInf(ipc, 0) {
			return fmt.Errorf("core %d IPC %v", i, ipc)
		}
	}
	if res.Cycles <= 0 || res.Ctrl.ReadsServed <= 0 {
		return fmt.Errorf("empty run: %d cycles, %d reads served", res.Cycles, res.Ctrl.ReadsServed)
	}
	return nil
}

func (w *closedLoop) traced(m map[string]float64, untracedCPU float64) (outcome, float64, error) {
	res, t, cpu, err := runTraced(w.cfg)
	if err != nil {
		return outcome{}, 0, err
	}
	if err := checkResult(res); err != nil {
		return outcome{}, 0, err
	}
	t.layerMetrics(m, res, untracedCPU)
	if err := t.writeSpans(spanPath(w.cfg.Workload, w.cfg.Seed)); err != nil {
		return outcome{}, 0, err
	}
	return outcome{digest: digest(res), instr: w.instr()}, cpu, nil
}

// replay replays a PRA2 trace captured from 4-core lbm under PRA.
type replay struct {
	data   []byte
	mcfg   memctrl.Config
	instr  int64 // instructions of the captured window the trace covers
	seed   uint64
	header int64 // record count from the trace footer
}

// The capture budget is pratrace's default: 300k warmup and 200k measured
// instructions per core.
const (
	captureWarmup = 300_000
	captureInstr  = 200_000
)

func newReplay(seed uint64) (*replay, error) {
	cfg := sim.DefaultConfig("lbm")
	cfg.InstrPerCore = captureInstr
	cfg.WarmupPerCore = captureWarmup
	cfg.Seed = seed
	cfg.Capture = true
	sys, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := sys.Run(); err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	var buf bytes.Buffer
	if err := sys.Trace().SaveV2(&buf); err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	mcfg := memctrl.DefaultConfig()
	mcfg.Scheme = memctrl.PRA
	mcfg.Policy = memctrl.RelaxedClose
	w := &replay{data: buf.Bytes(), mcfg: mcfg, instr: captureInstr * int64(cfg.Cores), seed: seed}
	f, err := w.open()
	if err != nil {
		return nil, err
	}
	w.header = f.Info().Records
	return w, nil
}

func (w *replay) open() (*trace.V2File, error) {
	return trace.OpenV2(bytes.NewReader(w.data), int64(len(w.data)))
}

// setup opens the trace and builds a controller of the replay's
// configuration. ReplayStream builds its own controller inside the timed
// section; this one measures what that build costs.
func (w *replay) setup() (func() (outcome, error), error) {
	f, err := w.open()
	if err != nil {
		return nil, err
	}
	if _, err := memctrl.New(w.mcfg); err != nil {
		return nil, err
	}
	return func() (outcome, error) { return w.replayOnce(f.Stream()) }, nil
}

func (w *replay) replayOnce(s trace.Stream) (outcome, error) {
	res, err := trace.ReplayStream(s, w.mcfg, trace.ReplayOpts{})
	if err != nil {
		return outcome{}, err
	}
	return w.outcome(res)
}

// outcome checks a replay's outputs: every record of the trace replayed,
// and the Result digest for the cross-repetition check.
func (w *replay) outcome(res trace.ReplayResult) (outcome, error) {
	if got := res.Reads + res.Writes; got != w.header {
		return outcome{}, fmt.Errorf("replayed %d records, footer says %d", got, w.header)
	}
	return outcome{digest: digest(res), instr: w.instr, records: w.header}, nil
}

// streamProbe wraps trace.Stream (the trace layer) with the same sampled
// timing as the traced system loop.
type streamProbe struct {
	t *tracer
	s trace.Stream
}

func (p *streamProbe) Next(rec *trace.Record) bool {
	p.t.next.calls++
	p.t.nextTick()
	if !p.t.on {
		return p.s.Next(rec)
	}
	t0 := p.t.now()
	ok := p.s.Next(rec)
	p.t.end(&p.t.next, "trace.Next", t0, 0)
	return ok
}

func (p *streamProbe) Err() error { return p.s.Err() }

func (w *replay) traced(m map[string]float64, untracedCPU float64) (outcome, float64, error) {
	f, err := w.open()
	if err != nil {
		return outcome{}, 0, err
	}
	t := newTracer()
	c0 := cpuTime()
	res, err := trace.ReplayStream(&streamProbe{t: t, s: f.Stream()}, w.mcfg, trace.ReplayOpts{})
	cpu := cpuTime() - c0
	if err != nil {
		return outcome{}, 0, err
	}
	out, err := w.outcome(res)
	if err != nil {
		return outcome{}, 0, err
	}
	records := t.next.calls - 1 // the last call reports end of stream
	m["trace.records"] = float64(records)
	m["trace.ns_per_record"] = t.next.nsPerCall()
	m["trace.self_s"] = t.next.est()
	// The replay loop is the controller plus the stream: what the stream
	// does not explain is the controller's.
	m["memctrl.self_s"] = max(0, untracedCPU-t.next.est())
	m["memctrl.ns_per_request"] = ratio(m["memctrl.self_s"]*1e9, float64(records))
	ctrlStats(m, res.Ctrl, res.Cycles)
	devStats(m, res.Dev.ActsByGranularity, res.Dev.Refreshes+res.Dev.PerBankRefreshes, res.AvgPowerMW())
	if err := t.writeSpans(spanPath("replay", w.seed)); err != nil {
		return outcome{}, 0, err
	}
	return out, cpu, nil
}

// campaign regenerates praexp's ablation experiment through a Runner.
type campaign struct {
	opt sim.ExpOptions
	exp sim.Experiment
}

// The ablation budget, and what it must produce: 15 simulations over 3
// workloads, 3 of which restore the warmup checkpoint of an earlier run
// with the same warmup fingerprint.
const (
	campaignInstr  = 20_000
	campaignWarmup = 40_000
	campaignSims   = 15
	campaignHits   = 3
)

func newCampaign(seed uint64) (*campaign, error) {
	exp, err := sim.ExperimentByID("ablation")
	if err != nil {
		return nil, err
	}
	return &campaign{
		opt: sim.ExpOptions{Instr: campaignInstr, Warmup: campaignWarmup, Seed: seed, Workers: workers()},
		exp: exp,
	}, nil
}

func (w *campaign) setup() (func() (outcome, error), error) {
	r := sim.NewRunner(w.opt)
	return func() (outcome, error) { return w.runOnce(r) }, nil
}

func (w *campaign) runOnce(r *sim.Runner) (outcome, error) {
	text, err := r.RunExperiment(w.exp)
	if err != nil {
		return outcome{}, err
	}
	sims, hits, misses := r.Simulations(), r.CheckpointHits(), r.CheckpointMisses()
	if sims != campaignSims || hits != campaignHits {
		return outcome{}, fmt.Errorf("campaign ran %d simulations with %d checkpoint hits, want %d and %d",
			sims, hits, campaignSims, campaignHits)
	}
	// Every simulation runs its measured window on 4 cores; warmups
	// restored from a checkpoint are not simulated.
	instr := sims*4*w.opt.Instr + misses*w.opt.Warmup
	return outcome{digest: digest(fmt.Sprintf("%s\nsimulations=%d hits=%d", text, sims, hits)), instr: instr}, nil
}

func (w *campaign) traced(m map[string]float64, untracedCPU float64) (outcome, float64, error) {
	r := sim.NewRunner(w.opt)
	c0 := cpuTime()
	out, err := w.runOnce(r)
	cpu := cpuTime() - c0
	if err != nil {
		return outcome{}, 0, err
	}
	m["checkpoint.hits"] = float64(r.CheckpointHits())
	m["checkpoint.misses"] = float64(r.CheckpointMisses())

	// Time the checkpoint layer on one of the campaign's configurations
	// (MIX2 under PRA, as the Runner builds it) and check that a restored
	// run measures exactly what the cold run does.
	cfg := sim.DefaultConfig("MIX2")
	cfg.Scheme = memctrl.PRA
	cfg.ActiveCores = 4
	cfg.InstrPerCore = w.opt.Instr
	cfg.WarmupPerCore = w.opt.Warmup / 4
	cfg.Seed = w.opt.Seed
	cold, err := sim.New(cfg)
	if err != nil {
		return outcome{}, 0, err
	}
	if err := cold.Warmup(); err != nil {
		return outcome{}, 0, err
	}
	const reps = 5
	var data []byte
	var saves, restores []float64
	var warm *sim.System
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		data, err = cold.Checkpoint()
		saves = append(saves, time.Since(t0).Seconds()*1e3)
		if err != nil {
			return outcome{}, 0, err
		}
		if warm, err = sim.New(cfg); err != nil {
			return outcome{}, 0, err
		}
		t0 = time.Now()
		err = warm.Restore(data)
		restores = append(restores, time.Since(t0).Seconds()*1e3)
		if err != nil {
			return outcome{}, 0, err
		}
	}
	want, err := cold.Measure()
	if err != nil {
		return outcome{}, 0, err
	}
	got, err := warm.Measure()
	if err != nil {
		return outcome{}, 0, err
	}
	if digest(got) != digest(want) {
		return outcome{}, 0, fmt.Errorf("restored run differs from the cold run")
	}
	m["checkpoint.bytes"] = float64(len(data))
	m["checkpoint.save_ms"] = median(saves)
	m["checkpoint.restore_ms"] = median(restores)
	cacheStats(m, want)
	return out, cpu, nil
}

// ctrlStats fills the controller metrics of a measured window of cycles
// CPU cycles.
func ctrlStats(m map[string]float64, c memctrl.Stats, cycles int64) {
	memCycles := float64(cycles) / float64(memctrl.DefaultConfig().CPUPerMem)
	// Little's law over the arrival-to-completion latency sums.
	m["memctrl.queue_occupancy"] = ratio(float64(c.ReadLatencySum+c.WriteLatencySum), memCycles)
	m["memctrl.read_rejects"] = float64(c.ReadRejects)
	m["memctrl.write_rejects"] = float64(c.WriteRejects)
	m["memctrl.row_hit_read"] = float64(c.RowHitRead)
	m["memctrl.row_hit_write"] = float64(c.RowHitWrite)
	m["memctrl.read_latency_ns"] = ratio(float64(c.ReadLatencySum), float64(c.ReadsServed)) * memCycleNs
}

// memCycleNs is one DRAM command-clock cycle (DDR3-1600).
const memCycleNs = sim.CPUCycleNs * 4

// devStats fills the DRAM and power metrics.
func devStats(m map[string]float64, acts [9]int64, refreshes int64, avgMW float64) {
	var n, eighths int64
	for g, c := range acts {
		n += c
		eighths += int64(g) * c
	}
	m["dram.activates"] = float64(n)
	m["dram.act_granularity"] = ratio(float64(eighths), float64(n))
	m["dram.refreshes"] = float64(refreshes)
	m["power.avg_mw"] = avgMW
}
