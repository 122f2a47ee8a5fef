// Command perfbench is the repository's benchmark: three workloads over
// the public mcbfs API — two serving a Pool (serve-batched,
// serve-ingest) and one offline Graph500-style run (traverse) — each
// checking every answer against a sequential reference BFS. See README.md for the workloads, the metrics and how
// to compare two sets of runs.
//
//	go run . --workload serve-ingest --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is the run's result as JSON. A run
// that finds a wrong answer prints its result and exits with status 1;
// a run that cannot complete prints no result and exits with status 2.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

var workloads = []string{"serve-batched", "serve-ingest", "traverse"}

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	record   string
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "file the spans of a traced run are written to (default .bench_build/trace_<workload>_<seed>.json)")
	flag.StringVar(&cfg.record, "record", "", "file to append this run's full record to, one JSON object per line")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace_%s_%d.json", cfg.workload, cfg.seed))
	}
	ok, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes one workload and prints its report; ok is false when an
// answer was wrong or went unchecked.
func run(cfg runConfig, stdout io.Writer) (ok bool, err error) {
	if cfg.seconds <= 0 || (cfg.trace && cfg.traceOut == "") {
		return false, fmt.Errorf("invalid configuration %+v", cfg)
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	o := newOutcome()
	start := time.Now()
	steal0, total0 := cpuTimes()
	switch cfg.workload {
	case "traverse":
		err = runTraverse(traverseDefault, cfg, o, tr)
	default:
		spec, known := serveSpecs[cfg.workload]
		if !known {
			return false, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
		}
		err = runServe(spec, cfg, o, tr)
	}
	if err != nil {
		return false, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	o.finish()
	steal1, total1 := cpuTimes()

	w := bufio.NewWriter(stdout)
	defer w.Flush()
	rec := newRecord(cfg, o, ratio(float64(steal1-steal0), float64(total1-total0)))
	line, err := json.Marshal(rec)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "record: %s\n", line)
	if cfg.record != "" {
		if err := appendLine(cfg.record, line); err != nil {
			return false, err
		}
	}
	fmt.Fprintf(w, "%s seed %d: %.1f s, %s\n", cfg.workload, cfg.seed, time.Since(start).Seconds(), rec.Stamp.Host())
	fmt.Fprintf(w, "  phases: %s\n", strings.Join(o.phases, ", "))
	for _, n := range o.notes {
		fmt.Fprintln(w, " ", n)
	}
	defs, traced := endToEnd, "untraced"
	if !cfg.trace {
		fmt.Fprintln(w, "end-to-end:")
		o.printTable(w, endToEnd)
		o.printTable(w, reportOnly)
	} else {
		defs, traced = perLayer, "traced"
		fmt.Fprintln(w, "per-layer:")
		o.printTable(w, perLayer)
		if err := tr.write(cfg.traceOut); err != nil {
			return false, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(w, "spans written to %s\n", cfg.traceOut)
	}
	fmt.Fprintf(w, "%s run: %d attempted, %d failed, %d wrong, %d/%d answers checked\n",
		traced, o.attempted, o.failed, o.wrong, o.checked, o.answered)
	result, err := json.Marshal(map[string]any{
		"correct":   o.correct(),
		"attempted": max(o.attempted, 1),
		"failed":    o.failed,
		"metrics":   o.resultMetrics(defs),
	})
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s\n", result)
	return o.correct(), nil
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stamp identifies the host, build and input of a run.
type stamp struct {
	Workload   string      `json:"workload"`
	Seed       uint64      `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Traced     bool        `json:"traced"`
	NProc      int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	GoVersion  string      `json:"go_version"`
	Commit     string      `json:"commit"`
	CPU        string      `json:"cpu"`
	Caches     []string    `json:"caches"`
	Graph      fingerprint `json:"graph"`
	// Steal is the share of CPU time the hypervisor gave to other
	// guests during the run (0 where /proc/stat does not report it):
	// timings of runs with much steal read slow.
	Steal float64 `json:"steal_frac"`
}

func (s stamp) Host() string {
	return fmt.Sprintf("%d CPUs (GOMAXPROCS %d), %s, caches %s, %s, commit %s, graph n=%d m=%d checksum %#x, steal %.1f%%",
		s.NProc, s.GOMAXPROCS, s.CPU, strings.Join(s.Caches, " "), s.GoVersion, s.Commit,
		s.Graph.N, s.Graph.M, s.Graph.Checksum, 100*s.Steal)
}

// record is one run's full output: stamp, counts and every metric.
type record struct {
	Stamp     stamp              `json:"stamp"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Better gives the direction, "lower" or "higher", of each metric
	// this kind of run is compared on: the end-to-end ones for an
	// untraced run, the per-layer ones for a traced run.
	Better map[string]string `json:"better"`
}

func newRecord(cfg runConfig, o *outcome, steal float64) record {
	better := map[string]string{}
	defs := append(slices.Clone(endToEnd), reportOnly...)
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := o.values[d.name]; ok {
			better[d.name] = d.better
		}
	}
	return record{
		Stamp: stamp{
			Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace,
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commit(), CPU: cpuModel(), Caches: cacheSizes(), Graph: o.fp, Steal: steal,
		},
		Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: o.values,
		Better: better,
	}
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTimes reads the all-CPU line of /proc/stat: stolen and total
// time in ticks, or zeros where the file is missing.
func cpuTimes() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i, v := range f[1:9] {
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// cacheSizes lists CPU 0's caches as level+type=size, e.g. "L1d=32K".
func cacheSizes() []string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var out []string
	for _, d := range dirs {
		read := func(f string) string {
			b, _ := os.ReadFile(filepath.Join(d, f))
			return strings.TrimSpace(string(b))
		}
		kind := map[string]string{"Data": "d", "Instruction": "i"}[read("type")]
		out = append(out, fmt.Sprintf("L%s%s=%s", read("level"), kind, read("size")))
	}
	sort.Strings(out)
	return out
}
