package engine

import (
	"errors"
	"sync/atomic"
	"time"

	"cbnet/internal/dataset"
	"cbnet/internal/metrics"
	"cbnet/internal/resilience"
	"cbnet/internal/trace"
)

// ErrPoisoned is returned by Submit when the request's content fingerprint
// matches a quarantined poison pill — an input that was previously
// convicted (by batch bisection) of crashing inference. Callers should
// surface it as a client error (HTTP 422), distinct from overload: the
// request is rejected because of what it contains, not because of load.
var ErrPoisoned = errors.New("engine: input quarantined as a poison pill")

// ResilienceConfig arms the fault-isolation layer: batch bisection on
// infer failure, poison-pill quarantine at admission, per-route circuit
// breakers with ladder divert, and a retry budget bounding re-runs. The
// zero value leaves it off (failures keep today's whole-batch semantics).
type ResilienceConfig struct {
	// Enabled turns the layer on.
	Enabled bool
	// Breaker tunes the per-route circuit breakers.
	Breaker resilience.BreakerConfig
	// Budget tunes the retry-token bucket funding bisection re-runs.
	Budget resilience.BudgetConfig
	// Quarantine tunes the poison-pill fingerprint ring.
	Quarantine resilience.QuarantineConfig
	// MaxBisectDepth bounds the bisection recursion; sub-batches still
	// failing at this depth fail as a group. Default 6 (isolates a
	// single culprit in batches up to 64).
	MaxBisectDepth int
}

func (c ResilienceConfig) withDefaults() ResilienceConfig {
	if c.MaxBisectDepth <= 0 {
		c.MaxBisectDepth = 6
	}
	return c
}

// BreakerTransition describes one circuit-breaker state change, delivered
// to OnBreaker observers (the serve layer logs it and records a flight
// event).
type BreakerTransition struct {
	Route RouteName
	From  resilience.State
	To    resilience.State
	At    time.Time
}

// resilienceState is the engine side of the fault-isolation layer.
type resilienceState struct {
	budget *resilience.Budget
	quar   *resilience.Quarantine

	poisoned       metrics.Counter // admissions rejected by quarantine
	diverted       metrics.Counter // requests rerouted off an open breaker
	breakerRejects metrics.Counter // requests shed with every candidate open
	bisectRuns     metrics.Counter // sub-batch re-runs executed
	bisectSaved    metrics.Counter // innocent requests served via bisection
	culprits       metrics.Counter // requests convicted and quarantined

	onBreaker atomic.Value // func(BreakerTransition)
}

// breakerChanged is the per-route breaker callback: it runs on whichever
// goroutine won the transition CAS (a worker observing a failure, or a
// Submit admitting the first probe). Cold path.
func (e *Engine) breakerChanged(rt *route, from, to resilience.State) {
	if fn, ok := e.res.onBreaker.Load().(func(BreakerTransition)); ok && fn != nil {
		fn(BreakerTransition{Route: rt.name, From: from, To: to, At: time.Now()})
	}
}

// OnBreaker installs the breaker-transition observer (replacing any
// previous one). The callback runs on the goroutine that won the
// transition — keep it cheap. No-op when resilience is off.
func (e *Engine) OnBreaker(fn func(BreakerTransition)) {
	if e.res == nil {
		return
	}
	e.res.onBreaker.Store(fn)
}

// BreakerOpen reports whether the named route's breaker is currently
// open. False when resilience is off or the route is unknown.
func (e *Engine) BreakerOpen(name RouteName) bool {
	if e.res == nil {
		return false
	}
	rt, ok := e.byName[name]
	if !ok || rt.breaker == nil {
		return false
	}
	return rt.breaker.State() == resilience.Open
}

// Shedding reports whether the degradation ladder is currently at a shed
// rung (every Submit refused). Surfaced by /readyz.
func (e *Engine) Shedding() bool {
	rung := e.currentRung()
	return rung != nil && rung.Shed
}

// admitFingerprint screens one admission against the quarantine. It
// returns the request's content fingerprint, or ok=false when the input
// is a known poison pill. Allocation-free.
func (e *Engine) admitFingerprint(pixels []float32) (fp uint64, ok bool) {
	if e.res == nil {
		return 0, true
	}
	fp = resilience.Fingerprint(pixels)
	if e.res.quar.Check(fp) {
		e.res.poisoned.Inc()
		return fp, false
	}
	return fp, true
}

// divert applies the route's circuit breaker at admission. A closed (or
// probing half-open) breaker admits to the chosen route; an open one
// walks the live routes in registration order and takes the first whose
// breaker admits — traffic rides the next rung instead of failing.
// Requests that need the converted image never divert (only the AE path
// produces one); they ride the hard route as extra probes. When every
// candidate is open the request is shed (ErrOverloaded upstream).
func (e *Engine) divert(rt *route, r *request) (*route, bool) {
	if e.res == nil || rt.breaker == nil || rt.breaker.Allow() {
		return rt, true
	}
	if r.wantConverted {
		return rt, true
	}
	for _, cand := range e.live {
		if cand == rt {
			continue
		}
		if cand.breaker == nil || cand.breaker.Allow() {
			e.res.diverted.Inc()
			return cand, true
		}
	}
	e.res.breakerRejects.Inc()
	return nil, false
}

// bisect isolates the culprit(s) of a failed multi-request batch by
// recursively re-running halves on the same worker (same PlanSet, same
// batch buffer). Each sub-run spends one retry-budget token; when the
// bucket runs dry — or the depth bound is hit — the remaining suspects
// fail as a group with the original error, so a hard-failing route
// degrades to exactly the pre-bisection behavior instead of amplifying
// load. Singleton failures are convicted as poison pills and quarantined,
// but only if at least one sibling from the batch was served: a
// route-wide fault fails every singleton too, and quarantining innocents
// on that evidence would turn an outage into a blocklist. Cold path —
// it only runs after a batch already failed.
func (e *Engine) bisect(rt *route, w *worker, batch []*request, parentID uint64, inferErr error) {
	served := 0
	var convicted []*request
	var run func(sub []*request, depth int)
	run = func(sub []*request, depth int) {
		if len(sub) == 0 {
			return
		}
		if depth > e.cfg.Resilience.MaxBisectDepth || !e.res.budget.Allow() {
			e.failSubBatch(rt, sub, inferErr)
			return
		}
		e.res.bisectRuns.Inc()
		if e.runSubBatch(rt, w, sub, parentID) {
			served += len(sub)
			return
		}
		if len(sub) == 1 {
			convicted = append(convicted, sub[0])
			e.failSubBatch(rt, sub, inferErr)
			return
		}
		mid := len(sub) / 2
		run(sub[:mid], depth+1)
		run(sub[mid:], depth+1)
	}
	// The full batch is already known to fail: start from the halves.
	mid := len(batch) / 2
	run(batch[:mid], 1)
	run(batch[mid:], 1)
	e.res.bisectSaved.Add(int64(served))
	if served > 0 {
		for _, r := range convicted {
			e.res.quar.Add(r.fp)
			e.res.culprits.Inc()
		}
	}
}

// runSubBatch re-runs a sub-batch through the route's forward pass on the
// worker's own buffers, delivering results on success. Returns false when
// the sub-batch still fails. Each re-run is traced as a bisect span whose
// Ref links the failed parent batch.
func (e *Engine) runSubBatch(rt *route, w *worker, sub []*request, parentID uint64) bool {
	n := len(sub)
	subID := e.batchSeq.Add(1)
	w.x.Shape[0] = n
	w.x.Data = w.buf[:n*dataset.Pixels]
	for i, r := range sub {
		copy(w.x.Data[i*dataset.Pixels:(i+1)*dataset.Pixels], r.pixels)
	}
	w.ps.SetTraceID(subID)
	t0 := trace.Now()
	start := time.Now()
	logits, converted, err := e.safeInfer(rt, w, &w.x)
	inferDur := time.Since(start)
	w.rec.Emit(trace.Span{ID: subID, Ref: parentID, Kind: trace.KindBisect,
		Name: w.routeName, Batch: n, Start: t0, Dur: trace.Now() - t0})
	if rt.breaker != nil {
		rt.breaker.Observe(err == nil)
	}
	if err != nil {
		return false
	}
	preds := w.preds[:n]
	logits.ArgMaxRows(preds)
	rt.stats.observeBatch(n, inferDur)
	for i, r := range sub {
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
		e.res.budget.OnSuccess()
		rt.stats.inflight.Add(-1)
		r.done <- outcome{res: res}
	}
	return true
}

// failSubBatch answers a group of suspects with the original infer error.
func (e *Engine) failSubBatch(rt *route, sub []*request, inferErr error) {
	e.stats.inferFailed.Add(int64(len(sub)))
	for _, r := range sub {
		rt.stats.inflight.Add(-1)
		r.done <- outcome{err: inferErr}
	}
}

// breakerHotAt reports whether any route the given ladder level actually
// routes traffic to has an open breaker. This scoping is what keeps the
// controller and the breakers from deadlocking each other: if an open
// breaker on (say) the hard route could hold the ladder at a rung pinned
// to easy, no traffic would ever reach hard again, its half-open probes
// would never run, and the breaker could never close. Scoped to the
// current rung's routes, breaker evidence escalates away from a broken
// route and then stops counting, so relaxation (driven purely by queue
// pressure cooling) re-exposes traffic and the probes can heal the
// breaker. The cost is a bounded escalate/relax oscillation while a
// breaker stays open — RelaxTicks per cycle, during which divert keeps
// requests off the broken route anyway.
func (e *Engine) breakerHotAt(lvl int) bool {
	if e.res == nil || e.deg == nil {
		return false
	}
	rung := e.deg.cfg.Ladder[lvl]
	if rung.Shed {
		return false
	}
	open := func(rt *route) bool {
		return rt != nil && rt.breaker != nil && rt.breaker.State() == resilience.Open
	}
	if rung.Route != "" {
		return open(e.byName[rung.Route])
	}
	return open(e.easy) || open(e.hard)
}

// ResilienceSnapshot is the /stats (and Resilience()) view of the
// fault-isolation layer.
type ResilienceSnapshot struct {
	Breakers        []BreakerSnapshot `json:"breakers"`
	BudgetTokens    float64           `json:"budgetTokens"`
	BudgetSpent     uint64            `json:"budgetSpent"`
	BudgetDenied    uint64            `json:"budgetDenied"`
	QuarantineSize  int               `json:"quarantineSize"`
	QuarantineAdds  uint64            `json:"quarantineAdds"`
	QuarantineHits  uint64            `json:"quarantineHits"`
	Poisoned        int64             `json:"poisoned"`
	Diverted        int64             `json:"diverted"`
	BreakerRejected int64             `json:"breakerRejected"`
	BisectRuns      int64             `json:"bisectRuns"`
	BisectSaved     int64             `json:"bisectSaved"`
	Culprits        int64             `json:"culprits"`
}

// BreakerSnapshot is one route's breaker state.
type BreakerSnapshot struct {
	Route          string `json:"route"`
	State          string `json:"state"`
	Transitions    uint64 `json:"transitions"`
	WindowSamples  int64  `json:"windowSamples"`
	WindowFailures int64  `json:"windowFailures"`
}

// Resilience returns a point-in-time view of the fault-isolation layer,
// or nil when it is off.
func (e *Engine) Resilience() *ResilienceSnapshot {
	if e.res == nil {
		return nil
	}
	s := &ResilienceSnapshot{
		BudgetTokens:    e.res.budget.Tokens(),
		BudgetSpent:     e.res.budget.Spent(),
		BudgetDenied:    e.res.budget.Denied(),
		QuarantineSize:  e.res.quar.Size(),
		QuarantineAdds:  e.res.quar.Adds(),
		QuarantineHits:  e.res.quar.Hits(),
		Poisoned:        e.res.poisoned.Value(),
		Diverted:        e.res.diverted.Value(),
		BreakerRejected: e.res.breakerRejects.Value(),
		BisectRuns:      e.res.bisectRuns.Value(),
		BisectSaved:     e.res.bisectSaved.Value(),
		Culprits:        e.res.culprits.Value(),
	}
	for _, rt := range e.live {
		if rt.breaker == nil {
			continue
		}
		total, failed := rt.breaker.Samples()
		s.Breakers = append(s.Breakers, BreakerSnapshot{
			Route:          string(rt.name),
			State:          rt.breaker.State().String(),
			Transitions:    rt.breaker.Transitions(),
			WindowSamples:  total,
			WindowFailures: failed,
		})
	}
	return s
}
