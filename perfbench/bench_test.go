package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"pradram/internal/memctrl"
	"pradram/internal/sim"
)

// The traced loop is a copy of sim.System's; it is only worth its spans if
// it simulates exactly what sim.RunOne does.
func TestTracedLoopMatchesRunOne(t *testing.T) {
	one := sim.DefaultConfig("LinkedList")
	one.ActiveCores = 1
	one.InstrPerCore = 40_000
	one.WarmupPerCore = 20_000
	one.Seed = 7

	four := sim.DefaultConfig("MIX2")
	four.Scheme = memctrl.PRA
	four.InstrPerCore = 8_000
	four.WarmupPerCore = 8_000
	four.Seed = 3

	for name, cfg := range map[string]sim.Config{"1-core": one, "4-core": four} {
		t.Run(name, func(t *testing.T) {
			want, err := sim.RunOne(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, tr, _, err := runTraced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if digest(got) != digest(want) {
				t.Fatalf("traced Result differs from sim.RunOne:\n got %+v\nwant %+v", got, want)
			}
			if tr.samples == 0 || tr.gen.sampled == 0 || tr.ctrlTick.sampled == 0 {
				t.Fatalf("no timed samples: %d ticks sampled", tr.samples)
			}
			m := map[string]float64{}
			tr.layerMetrics(m, got, 1)
			if m["cpu.retired"] < float64(cfg.InstrPerCore+cfg.WarmupPerCore) || m["workload.calls"] == 0 {
				t.Fatalf("counters not collected: %v", m)
			}
		})
	}
}

// Any change to any field of a Result, however deep, must fail the check.
func TestOutputCheckFailsOnPerturbedResult(t *testing.T) {
	cfg := sim.DefaultConfig("GUPS")
	cfg.InstrPerCore = 5_000
	res, err := sim.RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(res); err != nil {
		t.Fatal(err)
	}
	perturb := map[string]func(r *sim.Result){
		"controller counter": func(r *sim.Result) { r.Ctrl.ReadsServed++ },
		"IPC by one ulp":     func(r *sim.Result) { r.CoreIPC[2] = math.Nextafter(r.CoreIPC[2], 10) },
		"histogram bucket":   func(r *sim.Result) { r.Cache.DirtyWords.Buckets[1]++ },
		"energy":             func(r *sim.Result) { r.Energy[0] = math.Nextafter(r.Energy[0], 0) },
	}
	for name, f := range perturb {
		again, err := sim.RunOne(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := outputCheck{workload: "test", seed: 99}
		if err := c.check(digest(res)); err != nil {
			t.Fatal(err)
		}
		if err := c.check(digest(again)); err != nil {
			t.Fatalf("an identical rerun failed the check: %v", err)
		}
		f(&again)
		if err := c.check(digest(again)); err == nil {
			t.Errorf("%s: perturbed Result passed the output check", name)
		}
	}
}

// The committed digest is checked for the default seed only.
func TestOutputCheckUsesCommittedDigest(t *testing.T) {
	golden := goldenDigests[sim.ModelVersion]["mix2_pra"]
	if golden == "" {
		t.Skip("no committed digests for", sim.ModelVersion)
	}
	c := outputCheck{workload: "mix2_pra", seed: defaultSeed}
	if err := c.check("0123"); err == nil {
		t.Fatal("a digest other than the committed one passed for the default seed")
	}
	c = outputCheck{workload: "mix2_pra", seed: defaultSeed + 1}
	if err := c.check("0123"); err != nil {
		t.Fatalf("another seed's first digest was checked against the committed one: %v", err)
	}
}

func TestReportNamesAndLimits(t *testing.T) {
	if err := checkNames(endToEnd, perLayer); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]metric{
		{{"has space", "s"}},
		{{".dot_first", "s"}},
		{{"ok", "bad unit!"}},
		{{"twice", "s"}, {"twice", "s"}},
		make([]metric, 17),
	} {
		if err := checkNames(bad, perLayer); err == nil {
			t.Errorf("checkNames accepted %v", bad)
		}
	}
	if err := checkNames(endToEnd, make([]metric, 129)); err == nil {
		t.Error("checkNames accepted 129 per-layer metrics")
	}
}

// BENCHMARK.json at the repository root must describe what this program
// prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, program prints %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: %s (%s) in BENCHMARK.json, program prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestProfileSharesSumToOne(t *testing.T) {
	cfg := sim.DefaultConfig("MIX2")
	cfg.Scheme = memctrl.PRA
	cfg.InstrPerCore = 30_000
	cfg.WarmupPerCore = 30_000
	var runErr error
	shares, err := profiled(func() { _, runErr = sim.RunOne(cfg) })
	if err != nil || runErr != nil {
		t.Fatal(err, runErr)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if sum != 0 && math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v: %v", sum, shares)
	}
	if sum != 0 && shares["memctrl"] == 0 {
		t.Fatalf("no memctrl samples in a MIX2 run: %v", shares)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"pradram/internal/memctrl.(*chanCtl).schedule": "memctrl",
		"pradram/internal/core.Mask.Count":             "core",
		"pradram/internal/stats.(*LogHist).Add":        "other",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKey":      "runtime",
		"main.(*tracer).now":                           "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
