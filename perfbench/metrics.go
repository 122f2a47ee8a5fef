package main

import (
	"fmt"
	"io"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (TestMetricTablesMatchBenchmarkJSON).
type metricDef struct {
	name, unit, better string
}

// tierNames are the five BFS tiers in the order they are swept.
var tierNames = []string{"sequential", "parallel-simple", "single-socket", "multi-socket", "direction-optimizing"}

// parallelTiers are the tiers with per-level worker phases.
var parallelTiers = tierNames[1:]

// endToEnd are the metrics an untraced run prints as its result. Every
// workload measures every one of them (see README.md for what each
// means on each workload).
var endToEnd = func() []metricDef {
	defs := []metricDef{
		{"setup_s", "s", "lower"},
		{"heap_mb", "MB", "lower"},
		{"latency_p50_ms", "ms", "lower"},
		{"capacity_qps", "q/s", "higher"},
	}
	for _, t := range tierNames {
		defs = append(defs, metricDef{"teps." + t, "ME/s", "higher"})
	}
	return append(defs, metricDef{"batch_teps", "ME/s", "higher"})
}()

// reportOnly are end-to-end metrics that are printed and recorded but
// not part of the result line, because not every workload has them:
// only serving runs answer enough queries for a p99, only serve-ingest
// rebuilds, and error_rate is 0 whenever the code is correct. The run's
// failures still reach the result line as "failed".
var reportOnly = []metricDef{
	{"latency_p99_ms", "ms", "lower"},
	{"update_visible_ms", "ms", "lower"},
	{"error_rate", "ratio", "lower"},
}

// perLayer are the metrics a traced run prints as its result. A layer a
// workload bypasses reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"graph.build_s", "s", "lower"},
		{"graph.transpose_s", "s", "lower"},
		{"graph.reorder_s", "s", "lower"},
		{"graph.bytes_per_edge", "B", "lower"},
		{"core.session_new_ms", "ms", "lower"},
	}
	for _, t := range tierNames {
		defs = append(defs, metricDef{"core.search_ms." + t, "ms", "lower"})
	}
	for _, t := range tierNames {
		defs = append(defs, metricDef{"core.allocs_per_query." + t, "count", "lower"})
	}
	for _, t := range tierNames {
		defs = append(defs, metricDef{"core.scan_ratio." + t, "ratio", "lower"})
	}
	for _, t := range []string{"parallel-simple", "single-socket"} {
		defs = append(defs,
			metricDef{"core.atomic_ops_per_edge." + t, "ratio", "lower"},
			metricDef{"core.bitmap_reads_per_edge." + t, "ratio", "lower"})
	}
	defs = append(defs,
		metricDef{"core.remote_sends_per_edge", "ratio", "lower"},
		metricDef{"core.steals", "count", "lower"})
	for _, t := range parallelTiers {
		defs = append(defs,
			metricDef{"core.imbalance." + t, "ratio", "lower"},
			metricDef{"core.scan_frac." + t, "ratio", "higher"},
			metricDef{"core.barrier_frac." + t, "ratio", "lower"},
			metricDef{"core.drain_frac." + t, "ratio", "lower"})
	}
	return append(defs,
		metricDef{"msbfs.batch_ms", "ms", "lower"},
		metricDef{"msbfs.amortization", "ratio", "higher"},
		metricDef{"pool.overhead_p50_ms", "ms", "lower"},
		metricDef{"pool.overhead_p99_ms", "ms", "lower"},
		metricDef{"pool.search_ms", "ms", "lower"},
		metricDef{"pool.batch_width", "lanes", "higher"},
		metricDef{"pool.shed", "count", "lower"},
		metricDef{"pool.timed_out", "count", "lower"},
		metricDef{"swap.rebuild_ms", "ms", "lower"},
		metricDef{"swap.ingest_us", "us", "lower"},
		metricDef{"swap.degraded", "count", "lower"},
		metricDef{"swap.drained", "count", "higher"},
		metricDef{"obs.trace_overhead_frac", "ratio", "lower"},
		metricDef{"bench.lateness_p99_ms", "ms", "lower"},
		metricDef{"bench.checked_frac", "ratio", "higher"},
	)
}()

// outcome is one run's verdict and measurements.
type outcome struct {
	attempted, failed int64
	wrong             int64 // answers that disagreed with the reference
	checked, answered int64 // answers compared against the reference / answered at all
	values            map[string]float64
	fp                fingerprint // the input graph
	notes             []string    // human-readable lines printed above the result
	phases            []string    // wall time per phase, for sizing runs
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// phase notes the wall time of one phase of the run, measured or not.
func (o *outcome) phase(name string, start time.Time) time.Time {
	now := time.Now()
	o.phases = append(o.phases, fmt.Sprintf("%s %.1fs", name, now.Sub(start).Seconds()))
	return now
}

// maxFailureNotes bounds how many failures a run describes.
const maxFailureNotes = 20

// failf records a failed operation: refused, timed out or errored.
func (o *outcome) failf(format string, args ...any) {
	o.failed++
	if o.failed <= maxFailureNotes {
		o.notef("FAILED: "+format, args...)
	}
}

// wrongf records an answer that disagrees with the reference. It fails
// the run.
func (o *outcome) wrongf(format string, args ...any) {
	o.wrong++
	o.failf("WRONG ANSWER: "+format, args...)
}

// finish derives the run-wide ratios from the counts.
func (o *outcome) finish() {
	o.set("error_rate", ratio(float64(o.failed), float64(o.attempted)))
	o.set("bench.checked_frac", ratio(float64(o.checked), float64(o.answered)))
}

func (o *outcome) correct() bool { return o.wrong == 0 && o.checked == o.answered }

// printTable writes every metric of defs that the run measured, one per
// line, with its unit.
func (o *outcome) printTable(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		if v, ok := o.values[d.name]; ok {
			fmt.Fprintf(w, "  %-40s %14.6g %s\n", d.name, v, d.unit)
		}
	}
}

// resultMetrics is the result line's metrics object: every metric of
// defs, missing ones as 0.
func (o *outcome) resultMetrics(defs []metricDef) map[string]any {
	out := make(map[string]any, len(defs))
	for _, d := range defs {
		out[d.name] = map[string]any{"value": o.values[d.name], "unit": d.unit}
	}
	return out
}
