package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"soifft"
	"soifft/internal/conv"
	"soifft/internal/cvec"
	"soifft/internal/fft"
	"soifft/internal/machine"
	"soifft/internal/soi"
	"soifft/internal/window"
)

// plan_large: soifft.Plan.Forward at a Figure-11 size, one caller, closed
// loop over a pool of seeded noise inputs.
const (
	planLargeN = 917504
	inputPool  = 3 // distinct seeded inputs the ops rotate through
)

var planTail = tailSpec{0.90, "p90"}

// exactRefs builds a pool of inputs with gen and their exact transforms by
// fft.Plan, outside every timed region.
func exactRefs(n int, gen func() []complex128) (exact *fft.Plan, inputs, refs [][]complex128, err error) {
	exact, err = fft.NewPlan(n)
	if err != nil {
		return nil, nil, nil, err
	}
	for i := 0; i < inputPool; i++ {
		x := gen()
		y := make([]complex128, n)
		exact.Forward(y, x)
		inputs, refs = append(inputs, x), append(refs, y)
	}
	return exact, inputs, refs, nil
}

// planParams returns the window parameters soifft.NewPlan derives from cfg.
func planParams(n int, cfg soifft.Config) window.Params {
	c := cfg.Canonical()
	return window.Params{N: n, Segments: c.Segments, NMu: c.OversampleNum, DMu: c.OversampleDen, B: c.ConvWidth}
}

func runPlanLarge(o options, rep *report) error {
	n := o.n
	if n == 0 {
		n = planLargeN
	}
	cfg := soifft.DefaultConfig()
	rng := rand.New(rand.NewSource(o.seed))
	exact, inputs, refs, err := exactRefs(n, func() []complex128 { return noiseVector(n, rng) })
	if err != nil {
		return err
	}
	dst := make([]complex128, n)
	base := heapBase()

	plan, setup, err := medianSetup(o.reps(3),
		func() (*soifft.Plan, error) { return soifft.NewPlan(n, cfg) },
		func(*soifft.Plan) {})
	if err != nil {
		return err
	}
	rep.set("setup_s", setup)
	bound := plan.EstimatedError()
	forward := func(i int) error { return plan.Forward(dst, inputs[i%inputPool]) }
	var worst float64
	check := func(i int) {
		e := relErr(dst, refs[i%inputPool]) / bound
		worst = max(worst, e)
		rep.checkErr("plan_large", i, e)
	}
	if err := warmUp(o, 4, forward, check); err != nil {
		return err
	}
	p := closedLoop(o, forward, check)
	setLatency(rep, p, 1, planTail, false)
	rep.set("err_over_bound", worst)
	setHeap(rep, base, plan, exact, inputs, refs, dst)
	setRuntime(rep, p)
	if !o.trace {
		return nil
	}
	return tracePlanLarge(o, rep, planRun{plan, exact, planParams(n, cfg), inputs, refs, p})
}

// planRun is what the traced run of plan_large reuses from the untraced one.
type planRun struct {
	plan         *soifft.Plan
	exact        *fft.Plan
	params       window.Params
	inputs, refs [][]complex128
	untraced     phase
}

// tracePlanLarge replays Plan.Forward stage by stage through the public
// calls conv.Apply, fft.Batch.Transform, cvec.Transpose and
// soi.Plan.FinishSegment, timing each, and requires the replay's output to
// be bit-identical to Plan.Forward's. It then times the baselines and the
// host calibration for the model column.
func tracePlanLarge(o options, rep *report, r planRun) error {
	t := rep.spans
	p := r.params
	n, mp, m, segs := p.N, p.MPrime(), p.M(), p.Segments
	var win *window.Filter
	var err error
	d := t.timed("window.Design", -1, 0, func() { win, err = window.Design(p) })
	if err != nil {
		return err
	}
	rep.set("window.design_s", d.Seconds())
	sp, err := soi.NewPlanFromFilter(win, soi.DefaultOptions())
	if err != nil {
		return err
	}
	fp, err := fft.NewBatch(segs, 0)
	if err != nil {
		return err
	}
	want := make([][]complex128, inputPool)
	for i, x := range r.inputs {
		want[i] = make([]complex128, n)
		if err := r.plan.Forward(want[i], x); err != nil {
			return err
		}
	}

	ghost := p.GhostElems()
	xx := make([]complex128, n+ghost)
	u := make([]complex128, mp*segs)
	tt := make([]complex128, mp*segs)
	scratch := make([]complex128, mp)
	out := make([]complex128, n)
	var convD, fpD, trD, finD []float64
	replay := func(i int) error {
		id := int64(i)
		op := t.begin("soi.Forward(replay)", -1, id)
		src := r.inputs[i%inputPool]
		copy(xx, src)
		for g := 0; g < ghost; g++ {
			xx[n+g] = src[g%n]
		}
		convD = append(convD, t.timed("conv.Apply", op, id, func() {
			conv.Apply(conv.Buffered, win, u, xx, 0, p.Chunks(), 0)
		}).Seconds())
		fpD = append(fpD, t.timed("fft.Batch.Transform", op, id, func() {
			fp.Transform(u, u, p.Chunks()*p.NMu, segs, fft.Forward)
		}).Seconds())
		trD = append(trD, t.timed("cvec.Transpose", op, id, func() {
			cvec.Transpose(tt, u, mp, segs)
		}).Seconds())
		fin := t.begin("soi.Plan.FinishSegment", op, id)
		for f := 0; f < segs; f++ {
			sp.FinishSegment(out[f*m:(f+1)*m], tt[f*mp:(f+1)*mp], scratch)
		}
		finD = append(finD, t.end(fin).Seconds())
		t.end(op)
		return nil
	}
	check := func(i int) {
		w := want[i%inputPool]
		for k := range out {
			if out[k] != w[k] {
				rep.mismatch = append(rep.mismatch, fmt.Sprintf("plan_large replay op %d: element %d differs from Plan.Forward", i, k))
				return
			}
		}
		rep.checkErr("plan_large replay", i, relErr(out, r.refs[i%inputPool])/r.plan.EstimatedError())
	}
	tp := closedLoop(o, replay, check)
	rep.count(tp)

	untraced := median(r.untraced.lat)
	convS, fpS, trS, finS := median(convD), median(fpD), median(trD), median(finD)
	rep.set("conv.s_per_op", convS)
	rep.set("conv.gflops", p.ConvFlops()/convS/1e9)
	rep.set("fft.fp_s_per_op", fpS)
	rep.set("cvec.transpose_s_per_op", trS)
	rep.set("soi.finish_s_per_op", finS)
	rep.set("fft.fm_gflops", float64(segs)*machine.FFTFlops(mp)/finS/1e9)
	rep.set("soi.unattributed_s_per_op", untraced-(convS+fpS+trS+finS))
	rep.set("soi.bytes_moved_computed", bytesMoved(p))
	rep.set("trace.overhead_frac", median(tp.lat)/untraced-1)

	// Baselines: the exact FFT at the same length, and SOI on one worker.
	exactS, err := timeOps(t, "baseline.fft.Plan.Forward", o, func(dst, src []complex128) error {
		r.exact.Forward(dst, src)
		return nil
	}, r.inputs)
	if err != nil {
		return err
	}
	cfg1 := soifft.DefaultConfig()
	cfg1.Workers = 1
	plan1, err := soifft.NewPlan(n, cfg1)
	if err != nil {
		return err
	}
	w1S, err := timeOps(t, "baseline.soifft.Plan.Forward(workers=1)", o, plan1.Forward, r.inputs)
	if err != nil {
		return err
	}
	rep.set("baseline.exact_fft_s", exactS)
	rep.set("baseline.workers1_s", w1S)
	rep.set("baseline.soi_over_exact", untraced/exactS)

	setModel(rep, probeHost(rep), modelInput{
		params: p, nodes: 1, cores: runtime.GOMAXPROCS(0),
		conv: convS, fft: fpS + finS,
	})
	return nil
}

// timeOps returns the median time of a few calls of fn over the inputs,
// after one untimed call.
func timeOps(t *tracer, name string, o options, fn func(dst, src []complex128) error, inputs [][]complex128) (float64, error) {
	reps := 5
	if o.ops > 0 {
		reps = 2
	}
	dst := make([]complex128, len(inputs[0]))
	var ds []float64
	for i := 0; i <= reps; i++ {
		var err error
		d := t.timed(name, -1, int64(i), func() { err = fn(dst, inputs[i%len(inputs)]) })
		if err != nil {
			return 0, err
		}
		if i > 0 {
			ds = append(ds, d.Seconds())
		}
	}
	return median(ds), nil
}

// bytesMoved is Figure 4's sweep budget for one transform, computed from the
// array sizes (16-byte elements): the convolution reads the input with its
// ghost and writes N' = mu*N; F_P and the transpose each read and write N';
// the 4-sweep 6-step F_M' (demodulation fused) moves 4 N'; the projection
// copies N outputs (read and write).
func bytesMoved(p window.Params) float64 {
	n := float64(p.N)
	np := float64(p.MPrime() * p.Segments)
	elems := (n + float64(p.GhostElems()) + np) + 2*np + 2*np + 4*np + 2*n
	return elems * machine.BytesPerElement
}
