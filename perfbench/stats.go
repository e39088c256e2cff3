package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"soifft/internal/cvec"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// memSnap is the slice of runtime.MemStats the benchmark differences.
type memSnap struct {
	totalAlloc, mallocs uint64
	numGC               uint32
	pauseNs             uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.TotalAlloc, ms.Mallocs, ms.NumGC, ms.PauseTotalNs}
}

// heapBase forces two collections, which also empty every sync.Pool, and
// returns the bytes of heap in use: the baseline the program's retained
// heap is measured against, taken before the program is set up.
func heapBase() int64 {
	liveHeap()
	return liveHeap()
}

// liveHeap forces one collection and returns the bytes of heap in use.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// setHeap reports the heap the program retains over base at the end of a
// run: live_heap_bytes after two forced collections (plans, caches,
// connection state), and runtime.pooled_heap_bytes, what sync.Pools still
// hold after one collection on top of that. keep holds the benchmark's own
// buffers live until both are read, so they cancel against base.
func setHeap(rep *report, base int64, keep ...any) {
	one := liveHeap()
	two := liveHeap()
	rep.set("live_heap_bytes", float64(two-base))
	rep.set("runtime.pooled_heap_bytes", float64(one-two))
	runtime.KeepAlive(keep)
}

// phase is one measured loop: per-op latencies (failed ops included, never
// dropped), counts, the summed op time and the memory counters around it.
type phase struct {
	lat               []float64 // seconds
	attempted, failed int
	busy              time.Duration
	wall              time.Duration
	mem0, mem1        memSnap
}

func (p *phase) record(d time.Duration, err error) {
	p.lat = append(p.lat, d.Seconds())
	p.busy += d
	p.attempted++
	if err != nil {
		p.failed++
	}
}

// closedLoop calls op back to back, one caller, until the phase budget is
// spent (or exactly o.ops times). Only op is timed; check runs after each
// op, outside the timing, and validates its output.
func closedLoop(o options, op func(i int) error, check func(i int)) phase {
	var p phase
	budget := o.phaseBudget()
	p.mem0 = readMem()
	start := time.Now()
	for i := 0; ; i++ {
		if o.ops > 0 {
			if i >= o.ops {
				break
			}
		} else if time.Since(start) >= budget {
			break
		}
		t0 := time.Now()
		err := op(i)
		p.record(time.Since(t0), err)
		if err == nil {
			check(i)
		}
	}
	p.wall = time.Since(start)
	p.mem1 = readMem()
	return p
}

// warmUp runs op until the first ops' one-off costs (page faults, pool
// fills) are paid: at least minOps ops and one second, or one op in
// fixed-count mode. Every output is checked; a failure aborts the run.
func warmUp(o options, minOps int, op func(i int) error, check func(i int)) error {
	start := time.Now()
	for i := 0; ; i++ {
		if o.ops > 0 {
			if i >= 1 {
				return nil
			}
		} else if i >= minOps && time.Since(start) >= time.Second {
			return nil
		}
		if err := op(i); err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, err)
		}
		check(i)
	}
}

// tailSpec is the fixed tail percentile of a workload: the highest
// percentile that leaves at least ten samples beyond it at the workload's
// usual sample count.
type tailSpec struct {
	q     float64
	label string
}

// setLatency reports the end-to-end metrics of a measured phase: perOp
// transforms per op, throughput over the summed op time of a closed loop
// (wallClock=false) or the phase's wall time (open loop).
func setLatency(rep *report, p phase, perOp int, tail tailSpec, wallClock bool) {
	done := float64((p.attempted - p.failed) * perOp)
	secs := p.busy.Seconds()
	if wallClock {
		secs = p.wall.Seconds()
	}
	rep.set("throughput_per_s", done/secs)
	rep.set("latency_p50_ms", 1e3*median(p.lat))
	rep.set("latency_tail_ms", 1e3*quantile(p.lat, tail.q))
	rep.set("alloc_bytes_per_op", float64(p.mem1.totalAlloc-p.mem0.totalAlloc)/float64(p.attempted))
	beyond := len(p.lat) - int(math.Ceil(tail.q*float64(len(p.lat))))
	rep.notef("latency sample: %d ops (%d failed); tail is %s with %d samples beyond it", p.attempted, p.failed, tail.label, beyond)
	rep.count(p)
}

// setRuntime reports the runtime's allocation and GC counters per op over
// an untraced phase.
func setRuntime(rep *report, p phase) {
	ops := float64(p.attempted)
	rep.set("runtime.allocs_per_op", float64(p.mem1.mallocs-p.mem0.mallocs)/ops)
	rep.set("runtime.gc_cycles_per_op", float64(p.mem1.numGC-p.mem0.numGC)/ops)
	rep.set("runtime.gc_pause_s_per_op", float64(p.mem1.pauseNs-p.mem0.pauseNs)/1e9/ops)
	rep.set("failed_share", float64(p.failed)/ops)
}

// medianSetup runs setup reps times and returns the median duration with
// the last set-up's value; earlier values are released with release.
func medianSetup[T any](reps int, setup func() (T, error), release func(T)) (T, float64, error) {
	var last T
	var ds []float64
	for r := 0; r < reps; r++ {
		if r > 0 {
			release(last)
		}
		runtime.GC() // start every repetition from the same collector state
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
		last = v
	}
	return last, median(ds), nil
}

// noiseVector is a seeded complex Gaussian signal (white spectrum).
func noiseVector(n int, rng *rand.Rand) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// smoothVector is a seeded bandlimited signal: eight low-frequency modes
// with random amplitudes and phases. Neighbouring samples share their
// high-order bits, which the deltaplane codec exploits.
func smoothVector(n int, rng *rand.Rand) []complex128 {
	const modes = 8
	var amp [modes]complex128
	for m := range amp {
		amp[m] = cmplx.Rect(0.5+rng.Float64(), 2*math.Pi*rng.Float64())
	}
	x := make([]complex128, n)
	for t := range x {
		var v complex128
		for m := range amp {
			v += amp[m] * cmplx.Rect(1, 2*math.Pi*float64((m+1)*t)/float64(n))
		}
		x[t] = v
	}
	return x
}

// relErr is the relative L2 error of got against the reference want.
func relErr(got, want []complex128) float64 { return cvec.RelErrL2(got, want) }
