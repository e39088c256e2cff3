package main

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"soifft"
	"soifft/internal/conv"
	"soifft/internal/dist"
	"soifft/internal/fft"
	"soifft/internal/mpi"
	"soifft/internal/soi"
	"soifft/internal/trace"
	"soifft/internal/window"
)

// dist_tcp: dist.SOI across two ranks over loopback mpi.TCPNode, one worker
// per rank, one caller in a closed loop.
const (
	distN     = 917504
	distRanks = 2
)

var distTail = tailSpec{0.90, "p90"}

// opTimeout bounds every rank's Send and Recv, so a lost peer fails the op
// instead of hanging the run.
const opTimeout = 60 * time.Second

// mesh is one formed TCP world with its distributed plans.
type mesh struct {
	nodes [distRanks]*mpi.TCPNode
	plan  *soi.Plan
	ranks [distRanks]*dist.SOI
}

// formMesh connects the ranks over loopback, designs the plan (one worker
// per rank) and binds it to every rank.
func formMesh(p window.Params) (*mesh, error) {
	m := &mesh{}
	lns := make([]net.Listener, distRanks)
	addrs := make([]string, distRanks)
	for r := range lns {
		ln, err := mpi.ListenTCP("127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:r] {
				l.Close()
			}
			return nil, err
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	var wg sync.WaitGroup
	errs := make([]error, distRanks)
	for r := range lns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.nodes[r], errs[r] = mpi.ConnectTCPOpts(r, distRanks, lns[r], addrs, mpi.TCPOptions{OpTimeout: opTimeout})
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, errors.Join(err, m.close())
	}
	var err error
	m.plan, err = soi.NewPlan(p, soi.Options{Workers: 1, ConvVariant: conv.Buffered, FFTVariant: fft.SixStepOpt})
	if err != nil {
		return nil, errors.Join(err, m.close())
	}
	if m.ranks, err = bindRanks(m.plan, m.nodes[0], m.nodes[1]); err != nil {
		return nil, errors.Join(err, m.close())
	}
	return m, nil
}

// bindRanks binds the plan to one communicator per rank.
func bindRanks(plan *soi.Plan, comms ...mpi.Comm) ([distRanks]*dist.SOI, error) {
	var ranks [distRanks]*dist.SOI
	for r, c := range comms {
		d, err := dist.NewSOIFromPlan(c, plan)
		if err != nil {
			return ranks, err
		}
		ranks[r] = d
	}
	return ranks, nil
}

func (m *mesh) close() error {
	var errs []error
	for _, n := range m.nodes {
		if n != nil {
			errs = append(errs, n.Close())
		}
	}
	return errors.Join(errs...)
}

// forwardAll runs one distributed transform: every rank transforms its block
// of src into its block of dst concurrently, each through call, which may
// wrap the rank's Forward.
func forwardAll(ranks [distRanks]*dist.SOI, dst, src []complex128, call func(r int, forward func() error) error) error {
	ln := len(src) / distRanks
	var wg sync.WaitGroup
	var errs [distRanks]error
	for r, d := range ranks {
		wg.Add(1)
		//soilint:ignore goleak bounded: par.For inside Forward waits on a finite chunk range, and every Send/Recv of the rank is bounded by opTimeout
		go func() {
			defer wg.Done()
			errs[r] = call(r, func() error { return d.Forward(dst[r*ln:(r+1)*ln], src[r*ln:(r+1)*ln]) })
		}()
	}
	wg.Wait()
	return errors.Join(errs[:]...)
}

func direct(_ int, forward func() error) error { return forward() }

func runDistTCP(o options, rep *report) error {
	n := o.n
	if n == 0 {
		n = distN
	}
	params := planParams(n, soifft.DefaultConfig())
	rng := rand.New(rand.NewSource(o.seed))
	_, inputs, refs, err := exactRefs(n, func() []complex128 { return noiseVector(n, rng) })
	if err != nil {
		return err
	}
	dst := make([]complex128, n)
	base := heapBase()

	m, setup, err := medianSetup(o.reps(3),
		func() (*mesh, error) { return formMesh(params) },
		// An earlier set-up repetition's teardown error does not bear on
		// the measurement.
		func(m *mesh) { _ = m.close() })
	if err != nil {
		return err
	}
	defer m.close()
	rep.set("setup_s", setup)
	bound := m.plan.EstimatedError()
	forward := func(i int) error { return forwardAll(m.ranks, dst, inputs[i%inputPool], direct) }
	var worst float64
	check := func(i int) {
		e := relErr(dst, refs[i%inputPool]) / bound
		worst = max(worst, e)
		rep.checkErr("dist_tcp", i, e)
	}
	if err := warmUp(o, 3, forward, check); err != nil {
		return err
	}
	p := closedLoop(o, forward, check)
	setLatency(rep, p, 1, distTail, false)
	rep.set("err_over_bound", worst)
	setHeap(rep, base, m, inputs, refs, dst)
	setRuntime(rep, p)
	if !o.trace {
		return nil
	}
	return traceDistTCP(o, rep, m, inputs, refs, p)
}

// countingComm is an mpi.Comm decorator that counts messages and payload
// bytes exactly and times Send and Recv, recording a span around each call
// under the rank's current Forward span.
type countingComm struct {
	mpi.Comm
	t      *tracer
	parent atomic.Int64 // span index of the rank's Forward in progress
	msgs   atomic.Int64
	bytes  atomic.Int64
	sendNs atomic.Int64
	recvNs atomic.Int64
}

func (c *countingComm) Send(dst, tag int, data []complex128) error {
	sp := c.t.begin("mpi.Send", int(c.parent.Load()), int64(c.Rank()))
	err := c.Comm.Send(dst, tag, data)
	c.sendNs.Add(int64(c.t.end(sp)))
	c.msgs.Add(1)
	c.bytes.Add(int64(16 * len(data)))
	return err
}

func (c *countingComm) Recv(src, tag int) ([]complex128, int, error) {
	sp := c.t.begin("mpi.Recv", int(c.parent.Load()), int64(c.Rank()))
	data, from, err := c.Comm.Recv(src, tag)
	c.recvNs.Add(int64(c.t.end(sp)))
	return data, from, err
}

// RecvDeadline forwards the transport's per-op deadline.
func (c *countingComm) RecvDeadline(src, tag int, deadline time.Time) ([]complex128, int, error) {
	sp := c.t.begin("mpi.RecvDeadline", int(c.parent.Load()), int64(c.Rank()))
	data, from, err := c.Comm.(mpi.DeadlineRecver).RecvDeadline(src, tag, deadline)
	c.recvNs.Add(int64(c.t.end(sp)))
	return data, from, err
}

// traceDistTCP reruns the loop over counting communicators with each rank's
// Breakdown attached, then measures the loopback bandwidth and the host for
// the model column.
func traceDistTCP(o options, rep *report, m *mesh, inputs, refs [][]complex128, untraced phase) error {
	t := rep.spans
	p := m.plan.Win.Params
	var err error
	d := t.timed("window.Design", -1, 0, func() { _, err = window.Design(p) })
	if err != nil {
		return err
	}
	rep.set("window.design_s", d.Seconds())

	var cc [distRanks]*countingComm
	for r := range cc {
		cc[r] = &countingComm{Comm: m.nodes[r], t: t}
	}
	ranks, err := bindRanks(m.plan, cc[0], cc[1])
	if err != nil {
		return err
	}
	var bd [distRanks]*trace.Breakdown
	for r, d := range ranks {
		bd[r] = trace.NewBreakdown()
		d.Breakdown = bd[r]
	}
	dst := make([]complex128, p.N)
	var skew []float64
	forward := func(i int) error {
		op := t.begin("dist.SOI.Forward(all ranks)", -1, int64(i))
		var took [distRanks]time.Duration
		err := forwardAll(ranks, dst, inputs[i%inputPool], func(r int, forward func() error) error {
			sp := t.begin("dist.SOI.Forward", op, int64(r))
			cc[r].parent.Store(int64(sp))
			err := forward()
			took[r] = t.end(sp)
			return err
		})
		t.end(op)
		skew = append(skew, float64(max(took[0], took[1]))/float64(min(took[0], took[1])))
		return err
	}
	bound := m.plan.EstimatedError()
	check := func(i int) { rep.checkErr("dist_tcp traced", i, relErr(dst, refs[i%inputPool])/bound) }
	tp := closedLoop(o, forward, check)
	rep.count(tp)
	ops := float64(tp.attempted)

	maxPhase := func(name string) float64 {
		return max(bd[0].Get(name).Seconds(), bd[1].Get(name).Seconds()) / ops
	}
	rep.set("dist.ghost_s_per_op", maxPhase(trace.PhaseEtc))
	rep.set("dist.conv_s_per_op", maxPhase(trace.PhaseConv))
	rep.set("dist.local_fft_s_per_op", maxPhase(trace.PhaseLocalFFT))
	rep.set("dist.exposed_mpi_s_per_op", maxPhase(trace.PhaseExposedMPI))
	rep.set("dist.rank_skew", median(skew))
	var msgs, bytes, sendNs, recvNs int64
	for _, c := range cc {
		msgs += c.msgs.Load()
		bytes += c.bytes.Load()
		sendNs += c.sendNs.Load()
		recvNs += c.recvNs.Load()
	}
	rep.set("mpi.msgs_per_op", float64(msgs)/ops)
	rep.set("mpi.bytes_per_op", float64(bytes)/ops)
	rep.set("mpi.send_s_per_op", float64(sendNs)/1e9/ops)
	rep.set("mpi.recv_wait_s_per_op", float64(recvNs)/1e9/ops)
	rep.set("trace.overhead_frac", median(tp.lat)/median(untraced.lat)-1)

	bw, err := loopbackBandwidth(m.nodes)
	if err != nil {
		return err
	}
	rep.notef("loopback TCP bandwidth between the ranks: %.2f GB/s", bw/1e9)
	setModel(rep, probeHost(rep), modelInput{
		params: p, nodes: distRanks, cores: 1,
		conv: maxPhase(trace.PhaseConv), fft: maxPhase(trace.PhaseLocalFFT),
		mpi: maxPhase(trace.PhaseExposedMPI), loopbackBytesPer: bw,
	})
	return nil
}

// loopbackBandwidth ping-pongs a 4 MiB payload between the two ranks and
// returns the best one-way rate in bytes/s.
func loopbackBandwidth(nodes [distRanks]*mpi.TCPNode) (float64, error) {
	const elems, tag = 1 << 18, 1
	payload := make([]complex128, elems)
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		echo := make(chan error, 1)
		go func() {
			data, _, err := mpi.RecvTimeout(nodes[1], 0, tag, 10*time.Second)
			if err == nil {
				err = nodes[1].Send(0, tag, data)
			}
			echo <- err
		}()
		err := nodes[0].Send(1, tag, payload)
		if err == nil {
			_, _, err = nodes[0].Recv(1, tag)
		}
		if err = errors.Join(err, <-echo); err != nil {
			return 0, err
		}
		best = min(best, time.Since(t0)/2)
	}
	return 16 * elems / best.Seconds(), nil
}
