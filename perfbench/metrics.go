package main

import (
	"fmt"
	"regexp"
)

// metric names one reported number and its unit. Host time and simulated
// time are kept apart by name: every timing is host time unless the name
// says sim or latency_ns.
type metric struct {
	Name string
	Unit string
}

// endToEnd is what a user of the simulator sees; it is printed on every
// untraced run (--trace 0) and every value is positive on every workload.
var endToEnd = []metric{
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"allocs", "count"},
	{"host_mem_mb", "MB"},
}

// perLayer is printed on traced runs (--trace 1). A metric that does not
// apply to a workload reads 0 (for example workload.calls on the trace
// replay, which has no front end).
var perLayer = []metric{
	{"sim.self_s", "s"},
	{"sim.exec_ticks", "count"},
	{"sim.skip_ratio", "ratio"},
	{"workload.calls", "count"},
	{"workload.ns_per_call", "ns"},
	{"cpu.self_s", "s"},
	{"cpu.ns_per_tick", "ns"},
	{"cpu.retired", "count"},
	{"cpu.port_rejects", "count"},
	{"cache.self_s", "s"},
	{"cache.ns_per_access", "ns"},
	{"cache.l1_miss_rate", "ratio"},
	{"cache.l2_miss_rate", "ratio"},
	{"cache.writebacks", "count"},
	{"cache.backend_rejects", "count"},
	{"memctrl.self_s", "s"},
	{"memctrl.ns_per_tick", "ns"},
	{"memctrl.ns_per_request", "ns"},
	{"memctrl.queue_occupancy", "requests"},
	{"memctrl.read_rejects", "count"},
	{"memctrl.write_rejects", "count"},
	{"memctrl.row_hit_read", "count"},
	{"memctrl.row_hit_write", "count"},
	{"memctrl.read_latency_ns", "ns"},
	{"dram.activates", "count"},
	{"dram.act_granularity", "eighths"},
	{"dram.refreshes", "count"},
	{"power.avg_mw", "mW"},
	{"trace.records", "count"},
	{"trace.ns_per_record", "ns"},
	{"trace.self_s", "s"},
	{"checkpoint.hits", "count"},
	{"checkpoint.misses", "count"},
	{"checkpoint.bytes", "bytes"},
	{"checkpoint.save_ms", "ms"},
	{"checkpoint.restore_ms", "ms"},
	{"prof.sim", "share"},
	{"prof.workload", "share"},
	{"prof.cpu", "share"},
	{"prof.cache", "share"},
	{"prof.memctrl", "share"},
	{"prof.dram", "share"},
	{"prof.power", "share"},
	{"prof.core", "share"},
	{"prof.trace", "share"},
	{"prof.checkpoint", "share"},
	{"prof.runtime", "share"},
	{"prof.other", "share"},
	{"replay_krec_per_s", "krec/s"},
	{"bench.wall_s", "s"},
	{"bench.alloc_mb", "MB"},
	{"bench.trace_overhead", "ratio"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkNames enforces the report's naming limits: names start with a letter
// or digit and use only [A-Za-z0-9_.-], units use [A-Za-z0-9_/%.-], no
// name repeats, and there are at most 16 end-to-end and 128 per-layer
// metrics.
func checkNames(e2e, layers []metric) error {
	if len(e2e) == 0 || len(e2e) > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", len(e2e))
	}
	if len(layers) == 0 || len(layers) > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", len(layers))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), e2e...), layers...) {
		if !nameRE.MatchString(m.Name) {
			return fmt.Errorf("bad metric name %q", m.Name)
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("bad unit %q for %s", m.Unit, m.Name)
		}
		if seen[m.Name] {
			return fmt.Errorf("metric %s defined twice", m.Name)
		}
		seen[m.Name] = true
	}
	return nil
}
