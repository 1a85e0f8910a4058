// Command perfbench is pradram's benchmark: it runs one workload for a
// fixed host-time budget, checks every simulated output, and prints the
// end-to-end metrics (untraced run) or the per-layer split (traced run),
// ending with one JSON line:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh, which builds it
// from source; see perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	seed := fs.Uint64("seed", defaultSeed, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 20, "host seconds of measurement")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	printDigests := fs.Bool("print-digests", false, "print each workload's output digest for -seed and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := checkNames(endToEnd, perLayer); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *printDigests {
		return printGolden(*seed, stdout, stderr)
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := &bench{name: *name, w: w, chk: outputCheck{workload: *name, seed: *seed}, stderr: stderr}
	var metrics map[string]float64
	var specs []metric
	budget := time.Duration(*seconds * float64(time.Second))
	if *traced != 0 {
		metrics, err = b.tracedRun(budget)
		specs = perLayer
	} else {
		metrics, err = b.untracedRun(budget)
		specs = endToEnd
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	writeManifest(stdout, *name, *seed, *traced)
	if note := workloadNotes[*name]; note != "" {
		fmt.Fprintln(stdout, "note", note)
	}
	for _, s := range b.summary {
		fmt.Fprintln(stdout, s)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, map[string]value{}}
	for _, s := range specs {
		out.Metrics[s.Name] = value{metrics[s.Name], s.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench runs the repetitions of one workload and tallies their checks.
type bench struct {
	name      string
	w         benchWorkload
	chk       outputCheck
	stderr    io.Writer
	attempted int
	failed    int
	summary   []string // human-readable lines printed before the result

	setupEach  int       // setup samples taken before each repetition
	setupBatch int       // setups per sample
	setups     []float64 // host seconds per setup, one per sample
}

// rep is one untraced repetition.
type rep struct {
	wall   float64 // host seconds of the timed section
	cpu    float64 // host CPU seconds (user + system) of the timed section
	alloc  float64 // MB allocated in the timed section
	allocs float64 // heap allocations in the timed section
	heap   float64 // MB of live heap after it
	out    outcome
}

// record checks one repetition's outputs and counts it.
func (b *bench) record(out outcome, err error) bool {
	b.attempted++
	if err == nil {
		err = b.chk.check(out.digest)
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(b.stderr, "perfbench: %s repetition %d failed: %v\n", b.name, b.attempted, err)
		return false
	}
	return true
}

// once runs one untraced repetition: build, then the timed section.
func (b *bench) once() (rep, bool) {
	if b.setupEach > 0 {
		if err := b.sampleSetup(b.setupEach); err != nil {
			return rep{}, b.record(outcome{}, err)
		}
	}
	job, err := b.w.setup()
	if err != nil {
		return rep{}, b.record(outcome{}, err)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	out, err := job()
	wall := time.Since(t0).Seconds()
	cpu := cpuTime() - c0
	ok := b.record(out, err)
	// The live heap while the system under test is still reachable.
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(job)
	return rep{
		wall:   wall,
		cpu:    cpu,
		alloc:  float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		allocs: float64(m1.Mallocs - m0.Mallocs),
		heap:   float64(m1.HeapAlloc) / 1e6,
		out:    out,
	}, ok
}

// reps runs repetitions until budget has elapsed (at least one).
func (b *bench) reps(budget time.Duration) []rep {
	var rs []rep
	start := time.Now()
	for len(rs) == 0 || time.Since(start) < budget {
		if r, ok := b.once(); ok {
			rs = append(rs, r)
		} else if len(rs) == 0 && b.attempted >= 3 {
			break // nothing works; report the failures
		}
	}
	return rs
}

// sampleSetup times n setups, each after a fresh GC so one sample's
// garbage does not bill the next, batching setups too fast to time singly
// up to about a millisecond. Untraced runs sample before every repetition,
// so the pooled median spans the whole run rather than one moment of the
// host's load.
func (b *bench) sampleSetup(n int) error {
	if b.setupBatch == 0 {
		// The first setups grow the heap; they size the batch and are
		// not sampled.
		var first time.Duration
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			if _, err := b.w.setup(); err != nil {
				return err
			}
			first = time.Since(t0)
		}
		b.setupBatch = 1
		if first < 50*time.Microsecond {
			b.setupBatch = min(int(time.Millisecond/max(first, 100*time.Nanosecond)), 10_000)
		}
	}
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		for j := 0; j < b.setupBatch; j++ {
			if _, err := b.w.setup(); err != nil {
				return err
			}
		}
		b.setups = append(b.setups, time.Since(t0).Seconds()/float64(b.setupBatch))
	}
	return nil
}

func (b *bench) untracedRun(budget time.Duration) (map[string]float64, error) {
	b.setupEach = 21
	rs := b.reps(budget)
	setup := median(b.setups)
	b.summarize("setup_s", "s", b.setups)
	if len(rs) == 0 {
		return map[string]float64{"setup_s": setup}, nil
	}
	col := func(f func(rep) float64) []float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = f(r)
		}
		return v
	}
	m := map[string]float64{"setup_s": setup}
	// wall_s and alloc_mb are reported but not gated: wall time includes
	// the hypervisor's steal time, which cpu_s leaves out, and the bytes
	// allocated swing with the seed (the replay's chunk buffer grows
	// whenever a chunk larger than every earlier one arrives), while the
	// allocation count does not.
	for _, c := range []struct {
		name, unit string
		f          func(rep) float64
	}{
		{"wall_s", "s", func(r rep) float64 { return r.wall }},
		{"cpu_s", "s", func(r rep) float64 { return r.cpu }},
		{"sim_minstr_per_s", "Minstr/s", func(r rep) float64 { return float64(r.out.instr) / r.cpu / 1e6 }},
		{"allocs", "count", func(r rep) float64 { return r.allocs }},
		{"alloc_mb", "MB", func(r rep) float64 { return r.alloc }},
		{"host_mem_mb", "MB", func(r rep) float64 { return r.heap }},
	} {
		v := col(c.f)
		m[c.name] = median(v)
		b.summarize(c.name, c.unit, v)
	}
	if rs[0].out.records > 0 {
		v := col(func(r rep) float64 { return float64(r.out.records) / r.cpu / 1e3 })
		b.summarize("replay_krec_per_s", "krec/s", v)
	}
	return m, nil
}

// tracedRun splits the budget between untraced repetitions (the baseline
// for bench.trace_overhead), one repetition under the CPU profiler, and
// one traced repetition.
func (b *bench) tracedRun(budget time.Duration) (map[string]float64, error) {
	m := map[string]float64{}
	for _, s := range perLayer {
		m[s.Name] = 0
	}
	rs := b.reps(budget / 3)
	if len(rs) == 0 {
		return m, nil
	}
	walls := make([]float64, len(rs))
	cpus := make([]float64, len(rs))
	allocs := make([]float64, len(rs))
	for i, r := range rs {
		walls[i], cpus[i], allocs[i] = r.wall, r.cpu, r.alloc
	}
	cpu := median(cpus)
	m["bench.wall_s"] = median(walls)
	m["bench.alloc_mb"] = median(allocs)
	b.summarize("untraced wall_s", "s", walls)
	b.summarize("untraced cpu_s", "s", cpus)
	if rs[0].out.records > 0 {
		m["replay_krec_per_s"] = float64(rs[0].out.records) / cpu / 1e3
	}

	shares, err := profiled(func() {
		job, err := b.w.setup()
		var out outcome
		if err == nil {
			out, err = job()
		}
		b.record(out, err)
	})
	if err != nil {
		return nil, err
	}
	for mod, v := range shares {
		m["prof."+mod] = v
	}

	out, tracedCPU, err := b.w.traced(m, cpu)
	if b.record(out, err) {
		m["bench.trace_overhead"] = tracedCPU / cpu
	}
	return m, nil
}

// summarize records a metric's median, quartiles and sample count for the
// human-readable part of the report.
func (b *bench) summarize(name, unit string, v []float64) {
	q1, q2, q3 := quartiles(v)
	b.summary = append(b.summary, fmt.Sprintf("%-22s median %.6g %s  q1 %.6g  q3 %.6g  spread %.2f%%  n=%d",
		name, q2, unit, q1, q3, 100*ratio(q3-q1, q2), len(v)))
}

// printGolden prints every workload's output digest for seed, the values
// goldenDigests pins for the default seed.
func printGolden(seed uint64, stdout, stderr io.Writer) int {
	for _, name := range workloadNames {
		w, err := newWorkload(name, seed)
		if err == nil {
			var job func() (outcome, error)
			if job, err = w.setup(); err == nil {
				var out outcome
				if out, err = job(); err == nil {
					fmt.Fprintf(stdout, "%q: %q,\n", name, out.digest)
					continue
				}
			}
		}
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	return 0
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// quartiles returns the first quartile, median and third quartile of v by
// linear interpolation between order statistics.
func quartiles(v []float64) (float64, float64, float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// workers is the campaign's worker pool size: at most two, and no more
// than the host has cores.
func workers() int {
	return min(2, runtime.NumCPU())
}

// spanPath is where a traced run writes its span sample.
func spanPath(workload string, seed uint64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", workload, seed))
}

// cpuTime returns the process's user plus system CPU seconds so far.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
