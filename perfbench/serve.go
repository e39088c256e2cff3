package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"soifft"
	"soifft/client"
	"soifft/internal/codec"
	"soifft/internal/serve"
	"soifft/internal/trace"
	"soifft/internal/window"
)

// serve_small: n=64 transforms in 16-transform TBatch frames, one
// back-to-back caller on each of two connections. serve_large: one SOI
// transform per frame at a Figure-11 size, deltaplane payloads, one
// connection with one request outstanding.
const (
	serveSmallN     = 64
	serveSmallCount = 16  // transforms per TBatch frame
	serveSmallConns = 2   // connections, one closed-loop caller each
	serveSmallPool  = 128 // distinct seeded frames the requests rotate through
	serveSmallSLO   = 5 * time.Millisecond
	serveLargeN     = 458752
)

var (
	serveSmallTail = tailSpec{0.95, "p95"}
	serveLargeTail = tailSpec{0.85, "p85"}
)

// wireCounter accumulates the traffic of the connections a countingListener
// accepted: exact byte counts each way and the time server writes blocked.
type wireCounter struct {
	t       *tracer
	in, out atomic.Int64
	writeNs atomic.Int64
}

// countingListener wraps the listener handed to Server.Serve so every
// accepted connection is counted.
type countingListener struct {
	net.Listener
	w *wireCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, w: l.w}, nil
}

type countingConn struct {
	net.Conn
	w *wireCounter
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.w.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	sp := c.w.t.begin("net.Conn.Write(server)", -1, 0)
	n, err := c.Conn.Write(b)
	c.w.writeNs.Add(int64(c.w.t.end(sp)))
	c.w.out.Add(int64(n))
	return n, err
}

// serveEnv is a running soifftd engine with its listeners and clients.
type serveEnv struct {
	srv     *serve.Server
	serving sync.WaitGroup
	mu      sync.Mutex
	errs    []error
	clients []*client.Client

	closeOnce sync.Once
	closeErr  error
}

func startServer() *serveEnv { return &serveEnv{srv: serve.New(serve.Config{})} }

// listen serves a fresh loopback listener, wrapped when wrap is non-nil,
// and returns its address.
func (e *serveEnv) listen(wrap func(net.Listener) net.Listener) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	if wrap != nil {
		ln = wrap(ln)
	}
	e.serving.Add(1)
	go func() {
		defer e.serving.Done()
		if err := e.srv.Serve(ln); err != nil {
			e.mu.Lock()
			e.errs = append(e.errs, err)
			e.mu.Unlock()
		}
	}()
	return addr, nil
}

// dial opens k client connections to addr, each configured by cfg.
func (e *serveEnv) dial(addr string, k int, cfg func(*client.Client) error) ([]*client.Client, error) {
	var cs []*client.Client
	for i := 0; i < k; i++ {
		c, err := client.Dial(addr)
		if err != nil {
			return nil, err
		}
		e.clients = append(e.clients, c)
		if err := cfg(c); err != nil {
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// close disconnects the clients, drains the server and waits for every
// Serve call to return, so every response is written and counted. Later
// calls return the first call's error.
func (e *serveEnv) close() error {
	e.closeOnce.Do(func() { e.closeErr = e.shutdown() })
	return e.closeErr
}

func (e *serveEnv) shutdown() error {
	var errs []error
	for _, c := range e.clients {
		errs = append(errs, c.Close())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs = append(errs, e.srv.Shutdown(ctx))
	e.serving.Wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	return errors.Join(append(errs, e.errs...)...)
}

// serveSetup starts a server, connects k clients (e.clients) and completes
// one request with first: server start plus the first request's plan-cache
// fill.
func serveSetup(k int, cfg func(*client.Client) error, first func(*client.Client) error) (*serveEnv, error) {
	e := startServer()
	addr, err := e.listen(nil)
	if err == nil {
		if _, err = e.dial(addr, k, cfg); err == nil {
			if err = first(e.clients[0]); err == nil {
				return e, nil
			}
		}
	}
	return nil, errors.Join(err, e.close())
}

// closeEnv releases an earlier set-up repetition; its teardown error does
// not bear on the measurement.
func closeEnv(e *serveEnv) { _ = e.close() }

func identityCodec(*client.Client) error { return nil }

// smallBatch sends one serve_small frame and waits for its response.
func smallBatch(c *client.Client, dst, src []complex128) error {
	return c.Batch(context.Background(), dst, src, serveSmallCount, false)
}

// setServeLayers reports the serve, wire and client metrics of a traced
// phase of requests round trips whose client-side service times are svc,
// from the Server.Snapshot before (b) and after (a) the phase.
func setServeLayers(rep *report, b, a serve.Snapshot, w *wireCounter, requests int, svc []float64) {
	reqs := float64(requests)
	var server float64
	for metric, ph := range map[string]string{
		"serve.queue_wait_s_per_op": trace.PhaseQueueWait,
		"serve.plan_s_per_op":       trace.PhasePlan,
		"serve.execute_s_per_op":    trace.PhaseExecute,
		"serve.serialize_s_per_op":  trace.PhaseSerialize,
	} {
		v := (a.PhaseSeconds[ph] - b.PhaseSeconds[ph]) / reqs
		rep.set(metric, v)
		server += v
	}
	if batches := a.Batches - b.Batches; batches > 0 {
		rep.set("serve.mean_batch", float64(a.BatchedTransforms-b.BatchedTransforms)/float64(batches))
	}
	shed := (a.ShedOverload - b.ShedOverload) + (a.ShedDeadline - b.ShedDeadline)
	if total := shed + a.Completed - b.Completed; total > 0 {
		rep.set("serve.shed_share", float64(shed)/float64(total))
	}
	hits, misses := a.PlanCache.Hits-b.PlanCache.Hits, a.PlanCache.Misses-b.PlanCache.Misses
	if hits+misses > 0 {
		rep.set("serve.plan_cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	rep.set("wire.bytes_in_per_op", float64(w.in.Load())/reqs)
	rep.set("wire.bytes_out_per_op", float64(w.out.Load())/reqs)
	rep.set("wire.write_block_s_per_op", float64(w.writeNs.Load())/1e9/reqs)
	rep.set("client.overhead_s_per_op", mean(svc)-server)
}

// exactBound is the accuracy contract of the exact route, which has no
// designed SOI bound: the float64 rounding bound u*log2(n) of a radix FFT
// with unit roundoff u = 2^-53.
func exactBound(n int) float64 { return math.Ldexp(1, -53) * math.Log2(float64(n)) }

// smallFrames builds the serve_small request pool and the exact transform
// of every frame (see exactDFT).
func smallFrames(seed int64) (inputs, refs [][]complex128) {
	rng := rand.New(rand.NewSource(seed))
	cs, sn := twiddles(serveSmallN)
	for f := 0; f < serveSmallPool; f++ {
		x := noiseVector(serveSmallN*serveSmallCount, rng)
		y := make([]complex128, len(x))
		for k := 0; k < serveSmallCount; k++ {
			exactDFT(y[k*serveSmallN:(k+1)*serveSmallN], x[k*serveSmallN:(k+1)*serveSmallN], cs, sn)
		}
		inputs, refs = append(inputs, x), append(refs, y)
	}
	return inputs, refs
}

// callersResult is a serve_small phase: the phase, the requests over the
// latency limit or failed, the worst error ratio and the ops whose output
// exceeded the bound.
type callersResult struct {
	phase
	sloMisses int
	worst     float64
	bad       []int
}

// callers drives one closed-loop caller per client: each sends its next
// frame as soon as the previous response arrived, for the phase budget (or
// o.ops frames in all). Every response is checked after its timing.
func callers(o options, cs []*client.Client, inputs, refs [][]complex128, span func(i int) func()) callersResult {
	budget := o.phaseBudget()
	loops := make([]callersResult, len(cs))
	var res callersResult
	res.mem0 = readMem()
	start := time.Now()
	var wg sync.WaitGroup
	for l, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &loops[l]
			// Room for ~40 s of calls, so the sample's growth does not
			// count in alloc_bytes_per_op.
			r.lat = make([]float64, 0, 1<<19)
			dst := make([]complex128, serveSmallN*serveSmallCount)
			for i := l; ; i += len(cs) {
				if o.ops > 0 {
					if i >= o.ops {
						return
					}
				} else if time.Since(start) >= budget {
					return
				}
				end := span(i)
				t0 := time.Now()
				err := smallBatch(c, dst, inputs[i%serveSmallPool])
				d := time.Since(t0)
				end()
				r.record(d, err)
				if err != nil || d > serveSmallSLO {
					r.sloMisses++
				}
				if err != nil {
					continue
				}
				e := relErr(dst, refs[i%serveSmallPool]) / exactBound(serveSmallN)
				r.worst = max(r.worst, e)
				if !(e <= 1) {
					r.bad = append(r.bad, i)
				}
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.mem1 = readMem()
	for _, r := range loops {
		res.lat = append(res.lat, r.lat...)
		res.busy += r.busy
		res.attempted += r.attempted
		res.failed += r.failed
		res.sloMisses += r.sloMisses
		res.worst = max(res.worst, r.worst)
		res.bad = append(res.bad, r.bad...)
	}
	return res
}

func noSpan(int) func() { return func() {} }

func runServeSmall(o options, rep *report) error {
	inputs, refs := smallFrames(o.seed)
	base := heapBase()
	dst := make([]complex128, serveSmallN*serveSmallCount)
	srv, setup, err := medianSetup(o.reps(51),
		func() (*serveEnv, error) {
			return serveSetup(serveSmallConns, identityCodec, func(c *client.Client) error { return smallBatch(c, dst, inputs[0]) })
		}, closeEnv)
	if err != nil {
		return err
	}
	defer srv.close()
	rep.set("setup_s", setup)
	rep.checkErr("serve_small first request", 0, relErr(dst, refs[0])/exactBound(serveSmallN))

	// Warm up for a second (two frames per caller in fixed-count mode).
	warm := options{seconds: 1}
	if o.ops > 0 {
		warm.ops = 2 * serveSmallConns
	}
	wr := callers(warm, srv.clients, inputs, refs, noSpan)
	if wr.failed > 0 || len(wr.bad) > 0 {
		return fmt.Errorf("serve_small warm-up: %d failed, %d outside the bound", wr.failed, len(wr.bad))
	}
	r := callers(o, srv.clients, inputs, refs, noSpan)
	for _, i := range r.bad {
		rep.checkErr("serve_small", i, math.Inf(1))
	}
	setLatency(rep, r.phase, serveSmallCount, serveSmallTail, true)
	rep.set("err_over_bound", r.worst)
	// The latency sample (~3 MB) is the benchmark's, not the server's:
	// release it before the retained heap is read.
	untracedP50 := median(r.lat)
	r.lat = nil
	setHeap(rep, base, srv, inputs, refs, dst)
	setRuntime(rep, r.phase)
	rep.set("slo_miss_share", float64(r.sloMisses)/float64(r.attempted))
	rep.set("codec.ratio", 1)
	if !o.trace {
		return nil
	}

	// Traced phase: fresh connections through a counting listener.
	w := &wireCounter{t: rep.spans}
	addr, err := srv.listen(func(ln net.Listener) net.Listener { return countingListener{ln, w} })
	if err != nil {
		return err
	}
	cs, err := srv.dial(addr, serveSmallConns, identityCodec)
	if err != nil {
		return err
	}
	before := srv.srv.Snapshot()
	t := rep.spans
	tr := callers(o, cs, inputs, refs, func(i int) func() {
		sp := t.begin("client.Batch", -1, int64(i))
		return func() { t.end(sp) }
	})
	// Draining the server finishes every response write before counting.
	if err := srv.close(); err != nil {
		return err
	}
	rep.count(tr.phase)
	for _, i := range tr.bad {
		rep.checkErr("serve_small traced", i, math.Inf(1))
	}
	setServeLayers(rep, before, srv.srv.Snapshot(), w, tr.attempted, tr.lat)
	rep.set("trace.overhead_frac", median(tr.lat)/untracedP50-1)
	return nil
}

func runServeLarge(o options, rep *report) error {
	n := o.n
	if n == 0 {
		n = serveLargeN
	}
	rng := rand.New(rand.NewSource(o.seed))
	_, inputs, refs, err := exactRefs(n, func() []complex128 { return smoothVector(n, rng) })
	if err != nil {
		return err
	}
	// The server designs its own plan; the bound comes from the same
	// deterministic design, made here outside every timed region.
	var win *window.Filter
	var designS float64
	{
		t0 := time.Now()
		if win, err = window.Design(planParams(n, soifft.DefaultConfig())); err != nil {
			return err
		}
		designS = time.Since(t0).Seconds()
	}
	bound := win.AliasBound()
	dst := make([]complex128, n)
	base := heapBase()

	soiDeltaplane := func(c *client.Client) error {
		c.SetAlg(client.SOI)
		return c.SetCodec("deltaplane", 0)
	}
	first := func(c *client.Client) error { return c.Forward(context.Background(), dst, inputs[0]) }
	srv, setup, err := medianSetup(o.reps(3),
		func() (*serveEnv, error) { return serveSetup(1, soiDeltaplane, first) }, closeEnv)
	if err != nil {
		return err
	}
	defer srv.close()
	rep.set("setup_s", setup)
	var worst float64
	check := func(i int) {
		e := relErr(dst, refs[i%inputPool]) / bound
		worst = max(worst, e)
		rep.checkErr("serve_large", i, e)
	}
	check(0)
	c := srv.clients[0]
	forward := func(i int) error { return c.Forward(context.Background(), dst, inputs[i%inputPool]) }
	if err := warmUp(o, 3, forward, check); err != nil {
		return err
	}
	p := closedLoop(o, forward, check)
	setLatency(rep, p, 1, serveLargeTail, false)
	rep.set("err_over_bound", worst)
	setHeap(rep, base, srv, win, inputs, refs, dst)
	setRuntime(rep, p)
	if !o.trace {
		return nil
	}

	t := rep.spans
	rep.set("window.design_s", designS)
	w := &wireCounter{t: t}
	addr, err := srv.listen(func(ln net.Listener) net.Listener { return countingListener{ln, w} })
	if err != nil {
		return err
	}
	cs, err := srv.dial(addr, 1, soiDeltaplane)
	if err != nil {
		return err
	}
	tc := cs[0]
	dp, err := codec.ByName("deltaplane", 0)
	if err != nil {
		return err
	}
	var raw, packed int64
	var encS, decS, svc []float64
	roundTrip := make([]complex128, n)
	var enc []byte
	before := srv.srv.Snapshot()
	traced := func(i int) error {
		sp := t.begin("client.Forward", -1, int64(i))
		err := tc.Forward(context.Background(), dst, inputs[i%inputPool])
		svc = append(svc, t.end(sp).Seconds())
		return err
	}
	// After each round trip, time the public codec calls on the same
	// request and response payloads, outside the round-trip timing.
	tracedCheck := func(i int) {
		check(i)
		var e, d float64
		for _, payload := range [][]complex128{inputs[i%inputPool], dst} {
			e += t.timed("codec.AppendVector", -1, int64(i), func() { enc = codec.AppendVector(enc[:0], dp, payload) }).Seconds()
			var derr error
			d += t.timed("codec.DecodeVector", -1, int64(i), func() { derr = codec.DecodeVector(roundTrip, dp, enc) }).Seconds()
			if derr != nil || !identical(roundTrip, payload) {
				rep.mismatch = append(rep.mismatch, fmt.Sprintf("serve_large op %d: deltaplane round trip is not lossless (%v)", i, derr))
			}
			raw += int64(16 * len(payload))
			packed += int64(len(enc))
		}
		encS, decS = append(encS, e), append(decS, d)
	}
	tp := closedLoop(o, traced, tracedCheck)
	if err := srv.close(); err != nil {
		return err
	}
	rep.count(tp)
	setServeLayers(rep, before, srv.srv.Snapshot(), w, tp.attempted, svc)
	rep.set("codec.ratio", float64(raw)/float64(packed))
	rep.set("codec.encode_s_per_op", median(encS))
	rep.set("codec.decode_s_per_op", median(decS))
	rep.set("trace.overhead_frac", median(tp.lat)/median(p.lat)-1)
	return nil
}

func identical(a, b []complex128) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}
