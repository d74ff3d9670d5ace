package engine

import (
	"fmt"
	"time"

	"cbnet/internal/core"
	"cbnet/internal/dataset"
	"cbnet/internal/resilience"
	"cbnet/internal/tensor"
	"cbnet/internal/trace"
)

// RouteName identifies one of the engine's inference paths.
type RouteName string

const (
	// RouteEasy is the classifier-only path for low-hardness images.
	RouteEasy RouteName = "easy"
	// RouteHard is the full AE+classifier path.
	RouteHard RouteName = "hard"
)

// planFn compiles the route's PlanSet at a given batch capacity.
type planFn func(batchCap int) (*core.PlanSet, error)

// worker is one inference goroutine's private state. The serving path runs
// on compiled execution plans — ps holds the worker's own PlanSet, sized to
// MaxBatch, so steady-state batches execute with zero heap allocations and
// no cross-worker sharing.
type worker struct {
	ps *core.PlanSet

	// buf backs the batch input tensor; x is the reusable header over it,
	// resliced to the live batch size each round.
	buf   []float32
	x     tensor.Tensor
	preds []int

	// rec is the worker's private span ring: runBatch writes the batch's
	// lifecycle spans (queue, batch-form, execute, respond) into it, and
	// the worker's plans append their per-step spans. Single-writer by
	// construction — only this worker's goroutine emits.
	rec *trace.Recorder
	// routeName is the pre-interned route label for execute spans.
	routeName trace.NameID
}

// route owns one admission queue, one batcher, and a pool of workers.
type route struct {
	name    RouteName
	queue   chan *request   // admission-bounded; closed by Engine.Close
	batches chan []*request // formed micro-batches; closed by the batcher
	plans   planFn
	convert bool // run the AE plan before the classifier (the hard route)
	stats   *routeStats
	breaker *resilience.Breaker // nil unless resilience is armed
	started bool                // true once startRoute has launched its goroutines
}

// newRoute constructs a route and registers it; startRoute actually
// launches its batcher and workers. The split lets DisableRouting keep
// unused routes constructed (so Close can close their queues uniformly)
// without idling goroutines on them.
func (e *Engine) newRoute(name RouteName, plans planFn, convert bool) *route {
	rt := &route{
		name:  name,
		queue: make(chan *request, e.cfg.QueueDepth),
		// Unbuffered on purpose: a send succeeds exactly when a worker is
		// parked in receive, which is what makes the batcher
		// work-conserving (see batchLoop).
		batches: make(chan []*request),
		plans:   plans,
		convert: convert,
		stats:   e.stats.route(name),
	}
	if e.res != nil {
		rt.breaker = resilience.NewBreaker(e.cfg.Resilience.Breaker,
			func(from, to resilience.State) { e.breakerChanged(rt, from, to) })
	}
	e.routes = append(e.routes, rt)
	e.byName[name] = rt
	return rt
}

// liveRoutes returns the routes actually serving traffic, in registration
// order (easy, hard, then variants). Fixed at New, so callers may iterate
// without locking.
func (e *Engine) liveRoutes() []*route { return e.live }

// shedExpired answers a request whose deadline passed while it sat in the
// admission queue: the caller gets ErrDeadline and the request never
// occupies a batch slot. Returns true when the request was shed.
func (e *Engine) shedExpired(rt *route, r *request) bool {
	if r.ctx == nil || r.ctx.Err() == nil {
		return false
	}
	rt.stats.queued.Add(-1)
	rt.stats.inflight.Add(-1)
	e.stats.expired.Inc()
	r.done <- outcome{err: ErrDeadline}
	return true
}

// batchLoop is the route's single coalescing goroutine. A batch opens when
// the first request arrives and flushes on the earliest of three triggers:
//
//   - it reaches MaxBatch;
//   - the queue is empty and a worker is idle (work-conserving flush —
//     holding requests while capacity sits idle only adds latency, and in
//     closed-loop traffic it deadlocks throughput against MaxWait);
//   - it has been open for MaxWait (bounds latency when workers are busy).
//
// Batches therefore form exactly while all workers are occupied: under
// load they grow toward MaxBatch, and a lone request on an idle engine is
// dispatched immediately. Requests whose context already expired are shed
// here, at batch formation, instead of wasting a worker slot. When the
// queue closes (engine shutdown) the loop flushes whatever is pending and
// exits, so every admitted request is always answered.
func (e *Engine) batchLoop(rt *route) {
	defer e.wg.Done()
	defer close(rt.batches)
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	stopTimer := func() {
		if !timer.Stop() {
			<-timer.C
		}
	}
	for {
		// Wait for the request that opens the next batch.
		first, ok := <-rt.queue
		if !ok {
			return
		}
		if e.shedExpired(rt, first) {
			continue
		}
		first.tOpen = trace.Now()
		batch := append(make([]*request, 0, e.cfg.MaxBatch), first)
		timer.Reset(e.cfg.MaxWait)
		sent, deadline := false, false
		for !sent && !deadline && len(batch) < e.cfg.MaxBatch {
			// Drain work that is already queued before anything else.
			select {
			case r, ok := <-rt.queue:
				if !ok {
					stopTimer()
					rt.batches <- batch
					return
				}
				if !e.shedExpired(rt, r) {
					batch = append(batch, r)
				}
				continue
			default:
			}
			// Queue empty: hand off now if a worker is parked.
			select {
			case rt.batches <- batch:
				sent = true
				continue
			default:
			}
			// Workers busy and queue empty: block until more work, a
			// freed worker, or the deadline.
			select {
			case r, ok := <-rt.queue:
				if !ok {
					stopTimer()
					rt.batches <- batch
					return
				}
				if !e.shedExpired(rt, r) {
					batch = append(batch, r)
				}
			case rt.batches <- batch:
				sent = true
			case <-timer.C:
				deadline = true
			}
		}
		if !deadline {
			stopTimer()
		}
		if !sent {
			rt.batches <- batch
		}
	}
}

// workerLoop executes formed batches until the batcher closes the channel.
// Each worker owns one compiled PlanSet for its lifetime, so steady-state
// batches run a flat precompiled step loop with zero heap allocations. A
// panicking forward pass fails only that batch's callers (see safeInfer) —
// the worker survives.
func (e *Engine) workerLoop(rt *route, w *worker) {
	defer e.wg.Done()
	for batch := range rt.batches {
		e.runBatch(rt, batch, w)
	}
}

// newWorker builds one worker's private state: batch buffers, a compiled
// PlanSet, and a registered span recorder wired into both the lifecycle
// spans and the plans' per-step spans. It panics with the compile error
// when the route's network has no plan. The zero-alloc regression test
// reuses this exact wiring, so the traced production path is what gets
// measured.
func (e *Engine) newWorker(rt *route, idx int) *worker {
	w := &worker{
		buf:       make([]float32, e.cfg.MaxBatch*dataset.Pixels),
		preds:     make([]int, e.cfg.MaxBatch),
		rec:       trace.NewRecorder(e.cfg.TraceRing),
		routeName: trace.Intern(string(rt.name)),
	}
	w.x = tensor.Tensor{Shape: []int{0, dataset.Pixels}}
	e.registerTrack(fmt.Sprintf("%s/worker%d", rt.name, idx), w.rec)
	ps, err := rt.plans(e.cfg.MaxBatch)
	if err != nil {
		panic(fmt.Sprintf("engine: route %s: %v", rt.name, err))
	}
	ps.EnableTracingScoped(w.rec, e.meter, string(rt.name))
	w.ps = ps
	return w
}

// safeInfer runs the route's forward pass (after the fault-injection hook,
// if any), converting a panic or injected error into ErrInferFailed so the
// worker can fail the batch's callers and keep serving. The recover path
// allocates; the happy path does not.
func (e *Engine) safeInfer(rt *route, w *worker, x *tensor.Tensor) (logits, converted *tensor.Tensor, err error) {
	defer func() {
		if p := recover(); p != nil {
			logits, converted = nil, nil
			err = fmt.Errorf("%w: route %s: panic: %v", ErrInferFailed, rt.name, p)
		}
	}()
	if e.fault != nil {
		if ferr := e.fault.BeforeInfer(string(rt.name), x.Shape[0]); ferr != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrInferFailed, ferr)
		}
	}
	if e.batchFault != nil {
		if ferr := e.batchFault.BeforeInferBatch(string(rt.name), x); ferr != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrInferFailed, ferr)
		}
	}
	if rt.convert {
		converted = w.ps.Convert(x)
		x = converted
	}
	return w.ps.Logits(x), converted, nil
}

// runBatch assembles the batch tensor in the worker's buffer, runs the
// route's forward pass on its plans, and answers every request in the
// batch. Everything a requester keeps (class, converted image) is
// extracted or copied before the function returns, because the next batch
// reuses the plan buffers.
func (e *Engine) runBatch(rt *route, batch []*request, w *worker) {
	// Last shed point: a deadline can expire between batch formation and a
	// worker picking the batch up (all workers wedged). Compact the batch
	// in place so dead requests don't ride the forward pass.
	live := batch[:0]
	for _, r := range batch {
		if r.ctx != nil && r.ctx.Err() != nil {
			rt.stats.queued.Add(-1)
			rt.stats.inflight.Add(-1)
			e.stats.expired.Inc()
			r.done <- outcome{err: ErrDeadline}
			continue
		}
		live = append(live, r)
	}
	batch = live
	if len(batch) == 0 {
		return
	}
	n := len(batch)
	batchID := e.batchSeq.Add(1)
	w.x.Shape[0] = n
	w.x.Data = w.buf[:n*dataset.Pixels]
	for i, r := range batch {
		copy(w.x.Data[i*dataset.Pixels:(i+1)*dataset.Pixels], r.pixels)
	}
	preds := w.preds[:n]

	// Lifecycle spans: per-request queue spans (admission → execution
	// start, Ref = batch ID for correlation) and the batcher's coalescing
	// window, all emitted here because the worker is the ring's single
	// writer.
	t0 := trace.Now()
	for _, r := range batch {
		w.rec.Emit(trace.Span{ID: r.id, Ref: batchID, Kind: trace.KindQueue,
			Name: w.routeName, Batch: n, Start: r.tEnq, Dur: t0 - r.tEnq})
	}
	if open := batch[0].tOpen; open != 0 {
		w.rec.Emit(trace.Span{ID: batchID, Kind: trace.KindBatchForm,
			Name: w.routeName, Batch: n, Start: open, Dur: t0 - open})
	}
	rt.stats.queued.Add(-int64(n))
	w.ps.SetTraceID(batchID)

	start := time.Now()
	logits, converted, inferErr := e.safeInfer(rt, w, &w.x)
	inferDur := time.Since(start)
	tExec := trace.Now()
	w.rec.Emit(trace.Span{ID: batchID, Kind: trace.KindExecute,
		Name: w.routeName, Batch: n, Start: t0, Dur: tExec - t0})

	if rt.breaker != nil {
		rt.breaker.Observe(inferErr == nil)
	}
	if inferErr != nil {
		// With resilience armed, a multi-request batch is bisected so
		// only the culprit fails; otherwise (or for singletons, where
		// there is nothing to split) fail this batch's callers. Either
		// way the worker survives; the next batch starts a fresh plan
		// run.
		if e.res != nil && n > 1 {
			e.bisect(rt, w, batch, batchID, inferErr)
		} else {
			e.failSubBatch(rt, batch, inferErr)
		}
		w.rec.Emit(trace.Span{ID: batchID, Kind: trace.KindRespond,
			Name: w.routeName, Batch: n, Start: tExec, Dur: trace.Now() - tExec})
		return
	}
	logits.ArgMaxRows(preds)

	rt.stats.observeBatch(n, inferDur)
	for i, r := range batch {
		res := Result{
			RequestID: r.id,
			Class:     preds[i],
			Route:     string(rt.name),
			Hardness:  r.hardness,
			BatchSize: n,
			QueueWait: start.Sub(r.enqueued),
			Infer:     inferDur,
		}
		if r.wantConverted && converted != nil {
			res.Converted = append([]float32(nil), converted.Data[i*dataset.Pixels:(i+1)*dataset.Pixels]...)
		}
		rt.stats.observeRequest(res.QueueWait)
		e.stats.completed.Inc()
		if e.res != nil {
			e.res.budget.OnSuccess()
		}
		// Leave the gauge before the caller can observe its answer.
		rt.stats.inflight.Add(-1)
		r.done <- outcome{res: res}
	}
	w.rec.Emit(trace.Span{ID: batchID, Kind: trace.KindRespond,
		Name: w.routeName, Batch: n, Start: tExec, Dur: trace.Now() - tExec})
}
