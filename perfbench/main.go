// Command perfbench is the repository benchmark. It drives soifft only
// through its public entry points — soifft.Plan, dist.SOI over
// mpi.TCPNode, and serve.Server with client on loopback — on one of four
// named workloads, generates every input from --seed, checks every output
// against the exact FFT within the plan's designed error bound, and prints
// one JSON result as the last line of standard output:
//
//	bash perfbench/run.sh --workload plan_large --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics of an untraced
// run; with --trace 1 it holds the per-layer metrics of a traced run, which
// records spans around every public layer call and writes them out when the
// run ends. See perfbench/README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric with its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics of an untraced run (--trace 0), reported on
// every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"err_over_bound", "ratio"},
	{"alloc_bytes_per_op", "B"},
	{"live_heap_bytes", "B"},
}

// perLayer are the metrics of a traced run (--trace 1). A layer that does no
// work on a workload, or that the workload cannot observe from outside,
// reports 0 there.
var perLayer = []metricDef{
	{"window.design_s", "s"},
	{"conv.s_per_op", "s"},
	{"conv.gflops", "GFLOP/s"},
	{"fft.fp_s_per_op", "s"},
	{"cvec.transpose_s_per_op", "s"},
	{"soi.finish_s_per_op", "s"},
	{"fft.fm_gflops", "GFLOP/s"},
	{"soi.unattributed_s_per_op", "s"},
	{"soi.bytes_moved_computed", "B"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_s_per_op", "s"},
	{"runtime.pooled_heap_bytes", "B"},
	{"dist.ghost_s_per_op", "s"},
	{"dist.conv_s_per_op", "s"},
	{"dist.local_fft_s_per_op", "s"},
	{"dist.exposed_mpi_s_per_op", "s"},
	{"dist.rank_skew", "ratio"},
	{"mpi.msgs_per_op", "count"},
	{"mpi.bytes_per_op", "B"},
	{"mpi.send_s_per_op", "s"},
	{"mpi.recv_wait_s_per_op", "s"},
	{"serve.queue_wait_s_per_op", "s"},
	{"serve.plan_s_per_op", "s"},
	{"serve.execute_s_per_op", "s"},
	{"serve.serialize_s_per_op", "s"},
	{"serve.mean_batch", "count"},
	{"serve.shed_share", "ratio"},
	{"serve.plan_cache_hit_ratio", "ratio"},
	{"wire.bytes_in_per_op", "B"},
	{"wire.bytes_out_per_op", "B"},
	{"wire.write_block_s_per_op", "s"},
	{"client.overhead_s_per_op", "s"},
	{"codec.ratio", "ratio"},
	{"codec.encode_s_per_op", "s"},
	{"codec.decode_s_per_op", "s"},
	{"trace.overhead_frac", "ratio"},
	{"failed_share", "ratio"},
	{"slo_miss_share", "ratio"},
	{"host.triad_gbps", "GB/s"},
	{"host.core_gflops", "GFLOP/s"},
	{"host.bops", "B/flop"},
	{"model.conv_bops", "B/flop"},
	{"model.fft_bops", "B/flop"},
	{"model.conv_ratio", "ratio"},
	{"model.fft_ratio", "ratio"},
	{"model.mpi_ratio", "ratio"},
	{"baseline.exact_fft_s", "s"},
	{"baseline.workers1_s", "s"},
	{"baseline.soi_over_exact", "ratio"},
}

// options are the run parameters. The last three exist for the self-check
// test, which runs the workloads at reduced size for a fixed op count.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string // where the traced run writes its spans

	n         int // transform length; 0 selects the workload's size
	ops       int // > 0: run exactly this many ops per phase, ignoring seconds
	setupReps int // > 0: set-ups measured for setup_s, overriding the workload's count
}

// reps is the number of set-ups to measure: def unless overridden.
func (o options) reps(def int) int {
	if o.setupReps > 0 {
		return o.setupReps
	}
	return def
}

// phaseBudget is the measuring time of one phase: the whole run when
// untraced, half of it for each of the untraced and traced phases of a
// traced run.
func (o options) phaseBudget() time.Duration {
	s := o.seconds
	if o.trace {
		s /= 2
	}
	return time.Duration(s * float64(time.Second))
}

// report accumulates a run's outcome.
type report struct {
	attempted, failed int64
	mismatch          []string
	metrics           map[string]float64
	notes             []string
	spans             *tracer
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// checkErr records the error ratio of op's output against its bound; a
// ratio above 1 (or NaN) is a correctness mismatch.
func (r *report) checkErr(what string, op int, ratio float64) {
	if !(ratio <= 1) {
		r.mismatch = append(r.mismatch, fmt.Sprintf("%s op %d: error %.3g x the designed bound", what, op, ratio))
	}
}

// count adds a measured phase's ops to the run's totals.
func (r *report) count(p phase) {
	r.attempted += int64(p.attempted)
	r.failed += int64(p.failed)
}

var workloads = map[string]func(options, *report) error{
	"plan_large":  runPlanLarge,
	"dist_tcp":    runDistTCP,
	"serve_small": runServeSmall,
	"serve_large": runServeLarge,
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// run executes one workload and returns the result line to print.
func run(o options) (*report, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, names)
	}
	rep := newReport()
	if o.trace {
		rep.spans = newTracer()
	}
	if err := fn(o, rep); err != nil {
		return nil, err
	}
	if rep.attempted < 1 {
		return nil, fmt.Errorf("%s: no operation attempted", o.workload)
	}
	return rep, nil
}

// result renders the report as the benchmark's JSON line.
func (r *report) result(trace bool) jsonResult {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := jsonResult{
		Correct:   len(r.mismatch) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.name] = jsonMetric{Value: r.metrics[d.name], Unit: d.unit}
	}
	return out
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "plan_large | dist_tcp | serve_small | serve_large")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measuring time of the run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	o.trace = traceFlag == 1
	o.traceDir = filepath.Join(".bench_build", "traces")

	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, "note:", n)
	}
	res := rep.result(o.trace)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if rep.spans != nil {
		path, err := rep.spans.write(o.traceDir, o.workload, o.seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "note: %d spans written to %s\n", rep.spans.len(), path)
	}
	for _, m := range rep.mismatch {
		fmt.Fprintln(os.Stderr, "MISMATCH:", m)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
