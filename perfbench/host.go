package main

import (
	"runtime"
	"sync"
	"time"

	"soifft/internal/machine"
	"soifft/internal/perfmodel"
	"soifft/internal/window"
)

// Host calibration for the Section 4 model column. The triad arrays are
// sized against this host's caches: 4 MiB of L2 per core and a reported
// 300 MiB shared L3.
const (
	triadElems   = 4 << 20 // float64s per array: 32 MiB, 96 MiB for the three
	hostL2KB     = 4 << 10
	hostL3KB     = 300 << 10
	probeElems   = 512 // complex128s per operand of the compute probe: L1-resident
	probeRepeats = 4096
)

// hostProbe is the in-process calibration of this host.
type hostProbe struct {
	triadGBps  float64 // best STREAM-triad rate over all cores
	coreGFlops float64 // best complex multiply-add rate of one core
}

// probeHost runs a STREAM triad a = b + s*c over every core and a
// single-core complex multiply-add kernel, best of five passes each.
func probeHost(rep *report) hostProbe {
	a := make([]float64, triadElems)
	b := make([]float64, triadElems)
	c := make([]float64, triadElems)
	for i := range b {
		b[i], c[i] = float64(i), float64(2*i)
	}
	workers := runtime.GOMAXPROCS(0)
	best := time.Duration(1<<63 - 1)
	for pass := 0; pass < 5; pass++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*triadElems/workers, (w+1)*triadElems/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				triad(a[lo:hi], b[lo:hi], c[lo:hi], 3)
			}()
		}
		wg.Wait()
		best = min(best, time.Since(t0))
	}
	var p hostProbe
	p.triadGBps = 3 * 8 * triadElems / best.Seconds() / 1e9

	x := make([]complex128, probeElems)
	y := make([]complex128, probeElems)
	for i := range x {
		x[i], y[i] = complex(1, float64(i)*1e-3), complex(1e-3, 1)
	}
	best = time.Duration(1<<63 - 1)
	var sink complex128
	for pass := 0; pass < 5; pass++ {
		t0 := time.Now()
		sink += cmac(x, y, probeRepeats)
		best = min(best, time.Since(t0))
	}
	p.coreGFlops = 8 * probeElems * probeRepeats / best.Seconds() / 1e9
	rep.notef("STREAM triad: 3 arrays x %d MiB = %d MiB over %d cores: %.2f GB/s. The arrays exceed the %d MiB per-core L2 but fit the %d MiB L3, so this is an LLC rate; STREAM's 4x-LLC rule (3 x 1.2 GiB) cannot be met on a 7 GB shared host. Core probe: %.2f GFLOP/s complex multiply-add (checksum %.3g)",
		triadElems*8>>20, 3*triadElems*8>>20, workers, p.triadGBps, hostL2KB>>10, hostL3KB>>10, p.coreGFlops, real(sink))
	return p
}

func triad(a, b, c []float64, s float64) {
	for i := range a {
		a[i] = b[i] + s*c[i]
	}
}

func cmac(x, y []complex128, repeats int) complex128 {
	var acc complex128
	for r := 0; r < repeats; r++ {
		for i := range x {
			acc += x[i] * y[i]
		}
	}
	return acc
}

// hostNode is this host as a machine.Node with the given core count (the
// workers one SOI plan or rank uses).
func (p hostProbe) hostNode(cores int) machine.Node {
	return machine.Node{
		Name: "host", Sockets: 1, CoresPerSocket: cores, SMT: 1, SIMDWidth: 1,
		L1KB: 48, L2KB: hostL2KB, L3KB: hostL3KB,
		PeakGFlops: p.coreGFlops * float64(cores),
		StreamGBps: p.triadGBps,
	}
}

// modelInput is what a workload measured, per transform, for the model
// column: the convolution, the local FFTs (F_P plus F_M' and demod) and the
// exposed exchange (0 where there is none), with the loopback bandwidth the
// exchange ran at.
type modelInput struct {
	params           window.Params
	nodes, cores     int
	conv, fft, mpi   float64 // seconds per transform
	loopbackBytesPer float64 // bytes/s; 0 = no exchange
}

// setModel reports the host calibration and measured/model ratios of the
// paper's Section 4 model instantiated for this host, keeping the paper's
// efficiencies (12% FFT, 40% convolution) against the probed core rate.
func setModel(rep *report, p hostProbe, in modelInput) {
	node := p.hostNode(in.cores)
	cfg := perfmodel.Default()
	cfg.Xeon = node
	cfg.B, cfg.NMu, cfg.DMu = in.params.B, in.params.NMu, in.params.DMu
	n := float64(in.params.N)
	rep.set("host.triad_gbps", p.triadGBps)
	rep.set("host.core_gflops", p.coreGFlops)
	rep.set("host.bops", node.Bops())
	rep.set("model.conv_bops", machine.ConvAlgorithmicBops(in.params.B, in.params.NMu, in.params.DMu))
	rep.set("model.fft_bops", machine.FFTAlgorithmicBops(in.params.MPrime(), 4))
	rep.set("model.conv_ratio", in.conv/cfg.TConv(perfmodel.Xeon, n, in.nodes))
	rep.set("model.fft_ratio", in.fft/cfg.TFFT(perfmodel.Xeon, cfg.Mu()*n, in.nodes))
	if in.loopbackBytesPer > 0 {
		cfg.Fabric = machine.Fabric{PerNodeBytesPerSec: in.loopbackBytesPer, BaseNodes: in.nodes}
		rep.set("model.mpi_ratio", in.mpi/(cfg.Mu()*cfg.TMPI(n, in.nodes)))
	}
}
