package main

import (
	"math"
	"math/rand"
	"testing"

	"soifft/internal/fft"
)

// exactCounts are the traced metrics that are counts, not timings: they
// must repeat exactly when a seed is run again.
var exactCounts = []string{
	"mpi.msgs_per_op",
	"mpi.bytes_per_op",
	"wire.bytes_in_per_op",
	"wire.bytes_out_per_op",
	"codec.ratio",
	"soi.bytes_moved_computed",
	"err_over_bound",
}

// checkRun is a traced run at a reduced size for a fixed op count.
func checkRun(t *testing.T, workload string, seed int64) *report {
	t.Helper()
	o := options{
		workload: workload, seed: seed, trace: true, traceDir: t.TempDir(),
		n: 57344, ops: 4, setupReps: 1,
	}
	rep, err := run(o)
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if len(rep.mismatch) > 0 || rep.failed > 0 {
		t.Fatalf("%s seed %d: %d failed ops, mismatches %v", workload, seed, rep.failed, rep.mismatch)
	}
	return rep
}

// TestExactCountsRepeat runs every workload twice on one seed and once on a
// second seed: the exact counts repeat bit for bit, and the second seed
// runs clean too.
func TestExactCountsRepeat(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			a := checkRun(t, name, 1)
			b := checkRun(t, name, 1)
			for _, m := range exactCounts {
				x, y := a.metrics[m], b.metrics[m]
				if m == "err_over_bound" && name == "serve_small" {
					// The server's lane kernel factorizes by batch width,
					// and whether two frames coalesce into one batch is a
					// matter of timing: a coalesced frame is rounded
					// differently, within a few percent.
					if math.Abs(x-y) > 0.05*x {
						t.Errorf("%s: %v then %v on the same seed", m, x, y)
					}
					continue
				}
				if x != y {
					t.Errorf("%s: %v then %v on the same seed", m, x, y)
				}
			}
			if a.metrics["err_over_bound"] <= 0 {
				t.Errorf("err_over_bound = %v, want a measured error above 0", a.metrics["err_over_bound"])
			}
			checkRun(t, name, 2)
		})
	}
}

// TestEveryMetricReported: the result line carries every declared metric,
// and the untraced metrics of a run are all measured (never 0).
func TestEveryMetricReported(t *testing.T) {
	rep := checkRun(t, "plan_large", 3)
	for _, trace := range []bool{false, true} {
		res := rep.result(trace)
		want := endToEnd
		if trace {
			want = perLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(want))
		}
	}
	for _, d := range endToEnd {
		if rep.metrics[d.name] == 0 {
			t.Errorf("%s reported as 0", d.name)
		}
	}
}

// TestExactDFT: the double-double reference agrees with fft.Plan to float64
// rounding and its twiddles lie on the unit circle to double-double
// precision.
func TestExactDFT(t *testing.T) {
	const n = serveSmallN
	cs, sn := twiddles(n)
	for k := range cs {
		one := cs[k].mul(cs[k]).add(sn[k].mul(sn[k]))
		if d := (one.hi - 1) + one.lo; d > 1e-30 || d < -1e-30 {
			t.Fatalf("twiddle %d: cos^2+sin^2-1 = %g", k, d)
		}
	}
	x := noiseVector(n, rand.New(rand.NewSource(1)))
	want := make([]complex128, n)
	fft.MustPlan(n).Forward(want, x)
	got := make([]complex128, n)
	exactDFT(got, x, cs, sn)
	if e := relErr(got, want); e > exactBound(n) || e == 0 {
		t.Fatalf("exactDFT vs fft.Plan: relative error %g, want in (0, %g]", e, exactBound(n))
	}
}
