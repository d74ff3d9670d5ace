// Package engine implements a batched concurrent inference engine over a
// CBNet pipeline — the serving layer the paper's edge-deployment story
// needs once a device handles more than one client.
//
// Callers submit single images; the engine coalesces them into
// micro-batches (flushed on a size or deadline trigger, SEIFER-style
// pipelined scheduling), runs batches on a worker pool, and answers each
// caller individually. Two properties make it faster than the naive
// one-request-one-forward loop:
//
//   - Batching: a 32-row GEMM amortises im2col/weight traffic far better
//     than 32 one-row forwards.
//   - Hardness-aware routing: the §V heuristic (generalize.HardnessScore)
//     sends easy images straight to the lightweight classifier, skipping
//     the autoencoder's share of pipeline latency entirely; hard images
//     take the full AE+classifier path. Each route has its own batcher and
//     workers so slow hard batches never stall easy traffic.
//
// Beyond the built-in easy/hard pair, the engine hosts a registry of
// variant routes — arbitrary pixels→logits networks (pruned, early-exit,
// SubFlow/AdaDeep family members) compiled into plans — and an optional
// degradation controller that walks traffic down a quality ladder
// (full → early-exit → pruned → shed) as SLO budget burns or queues fill,
// climbing back when pressure clears. Overload then costs accuracy before
// it costs availability.
//
// Admission is bounded: when a route's queue is full, Submit fails fast
// with ErrOverloaded so the caller can shed load instead of piling up
// goroutines. Requests whose context is already expired are refused at
// admission and shed again at batch formation (ErrDeadline), so a dead
// request never occupies a batch slot. Close drains every accepted request
// before returning.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cbnet/internal/core"
	"cbnet/internal/dataset"
	"cbnet/internal/nn"
	"cbnet/internal/resilience"
	"cbnet/internal/tensor"
	"cbnet/internal/trace"
)

// ErrOverloaded is returned by Submit when the target route's admission
// queue is full, or when the degradation controller is at a shed rung.
// Callers should surface it as backpressure (HTTP 503).
var ErrOverloaded = errors.New("engine: overloaded, queue full")

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("engine: closed")

// ErrDeadline is returned by Submit when the request's context deadline
// had already expired at admission or by the time its batch formed; the
// request consumed no inference capacity. Callers should surface it as a
// timeout (HTTP 504), distinct from load shedding.
var ErrDeadline = errors.New("engine: request deadline expired")

// ErrInferFailed is returned by Submit when the batch's forward pass
// failed — an injected fault or a recovered worker panic. The worker
// survives; only the failing batch's callers see the error.
var ErrInferFailed = errors.New("engine: inference failed")

// DefaultHardnessThreshold splits easy from hard images on the
// generalize.HardnessScore scale. Calibrated against the generator: clean
// renders score around 0.4–1.0 (p95 ≤ 1.01 across all three families)
// while degraded renders centre near 1.2; see the router tests for the
// calibration check.
const DefaultHardnessThreshold = 1.05

// FaultInjector intercepts every batch just before its forward pass; the
// chaos harness (internal/chaos) implements it to inject latency, errors,
// and panics through the exact path real faults would take. A returned
// error or a panic fails the batch's callers with ErrInferFailed; the
// worker itself always survives.
type FaultInjector interface {
	BeforeInfer(route string, batchSize int) error
}

// BatchFaultInjector is an optional FaultInjector extension that sees the
// assembled batch tensor, enabling content-keyed faults (a poison pixel
// value that panics any batch containing it, the way a malformed input
// would). Injectors implementing it get both hooks, BeforeInfer first.
type BatchFaultInjector interface {
	FaultInjector
	BeforeInferBatch(route string, x *tensor.Tensor) error
}

// Variant registers one extra inference route: a standalone pixels→logits
// network from the compression family (pruned lightweight, SubFlow or
// AdaDeep subnet, a different early exit). The engine compiles it into a
// plan per worker exactly like the built-in routes; traffic reaches it via
// a degradation-ladder rung that pins to its name.
type Variant struct {
	// Name labels the route in stats, metrics, and ladder rungs. Must be
	// non-empty and distinct from "easy", "hard", and other variants.
	Name RouteName
	// Net maps a (batch × 784) pixel tensor to (batch × classes) logits.
	Net *nn.Sequential
}

// Config tunes the engine. The zero value is usable: every field has a
// sensible default applied by New.
type Config struct {
	// MaxBatch flushes a route's pending requests once this many have
	// coalesced. Default 32.
	MaxBatch int
	// MaxWait flushes a partial batch this long after its first request
	// arrived, bounding the latency cost of batching. Default 2ms.
	MaxWait time.Duration
	// Workers is the number of inference goroutines per route.
	// Default max(1, GOMAXPROCS/2) so the two routes together roughly
	// fill the machine.
	Workers int
	// QueueDepth bounds each route's admission queue; a full queue makes
	// Submit return ErrOverloaded. Default 256.
	QueueDepth int
	// HardnessThreshold routes images with HardnessScore >= threshold to
	// the full AE path. Zero selects DefaultHardnessThreshold; to convert
	// every image use DisableRouting instead.
	HardnessThreshold float64
	// DisableRouting forces every request down the full AE+classifier
	// path (the paper's always-convert baseline). Variant routes are not
	// started and the degradation controller is forced off in this mode.
	DisableRouting bool
	// TraceRing is the capacity of each worker's span ring buffer
	// (recent spans served by /debug/trace). Default 256. Tracing is
	// always on — span emission is a handful of atomic stores per plan
	// step, bounded at <2% of plan execution by the regression tests.
	TraceRing int
	// Variants adds extra compiled routes beyond the easy/hard pair.
	// New panics on duplicate or reserved names and nil networks.
	Variants []Variant
	// Degrade configures the graceful-degradation controller; the zero
	// value leaves it off.
	Degrade DegradeConfig
	// Fault, when non-nil, intercepts every batch before its forward pass
	// (see FaultInjector). Testing and chaos drills only.
	Fault FaultInjector
	// Resilience arms the fault-isolation layer: batch bisection,
	// poison-pill quarantine, per-route circuit breakers, and the retry
	// budget. Off by default — the zero value keeps whole-batch failure
	// semantics.
	Resilience ResilienceConfig
	// GEMMThreads is the intra-GEMM fan-out: how many goroutines one
	// large GEMM inside a worker's forward pass may spread its macro
	// kernel across (tensor.SetGEMMThreads — process-wide, so the last
	// engine constructed wins). Zero sizes it automatically so that
	// workers × live routes × gemm-threads ≤ GOMAXPROCS — with default
	// worker counts that is 1, keeping parallelism at the batch level and
	// routes out of each other's cores; shrink Workers to trade batch
	// concurrency for single-GEMM latency. Negative forces 1 (serial).
	GEMMThreads int
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0) / 2
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.HardnessThreshold == 0 {
		c.HardnessThreshold = DefaultHardnessThreshold
	}
	if c.TraceRing <= 0 {
		c.TraceRing = 256
	}
	c.Degrade = c.Degrade.withDefaults()
	c.Resilience = c.Resilience.withDefaults()
	return c
}

// Request is one image to classify.
type Request struct {
	// ID, when non-zero, is a caller-issued correlation ID from
	// IssueRequestID. The serve layer issues IDs before validation so
	// rejected requests (400/413/503) still carry a requestId in logs and
	// responses; zero lets Submit assign one.
	ID uint64
	// Pixels is the flattened 28×28 image in [0,1].
	Pixels []float32
	// IncludeConverted asks for the autoencoder's output image. Setting
	// it forces the full AE route regardless of hardness, since the easy
	// route never produces a conversion.
	IncludeConverted bool
}

// Result is the engine's answer for one request.
type Result struct {
	// RequestID is the engine-assigned correlation ID; lifecycle spans in
	// /debug/trace carry it, and the serve layer logs it per request.
	RequestID uint64
	// Class is the predicted label.
	Class int
	// Route names the path taken ("easy", "hard", or a variant name).
	Route string
	// Hardness is the request's heuristic score (0 when routing is
	// disabled or the degradation ladder pinned the route).
	Hardness float64
	// BatchSize is the size of the micro-batch this request rode in.
	BatchSize int
	// QueueWait is the time from admission to batch execution start.
	QueueWait time.Duration
	// Infer is the forward-pass time of the whole batch.
	Infer time.Duration
	// Converted is the AE output image, set only when requested.
	Converted []float32
}

// outcome is what a worker (or the batch-formation shed path) delivers to
// one waiting caller: a result or a terminal error.
type outcome struct {
	res Result
	err error
}

// request is the internal unit flowing through a route.
type request struct {
	id            uint64
	ctx           context.Context // caller context; checked again at batch formation
	pixels        []float32
	wantConverted bool
	hardness      float64
	fp            uint64 // content fingerprint (resilience armed), else 0
	enqueued      time.Time
	tEnq          int64 // trace.Now() at admission, for the queue span
	tOpen         int64 // trace.Now() when the batcher opened this batch
	// (stamped on the batch's first request only); the worker
	// turns it into the batch-form span.
	done chan outcome // buffered(1): workers never block on delivery
}

// Engine coalesces single-image requests into batched forward passes.
type Engine struct {
	cfg  Config
	pipe *core.Pipeline
	// routes is every constructed route; live is the subset actually
	// started (serving traffic); byName resolves ladder rungs. All three
	// are fixed at New, so reads need no lock.
	routes []*route
	live   []*route
	byName map[RouteName]*route
	easy   *route
	hard   *route
	stats  *engineStats
	deg    *degrader
	res    *resilienceState
	fault  FaultInjector
	// batchFault is fault pre-asserted to its batch-level extension, so
	// the hot path skips the type assertion.
	batchFault BatchFaultInjector

	// meter aggregates per-plan-step counters across all workers (the
	// cbnet_plan_step_* series on /metrics); reqID and batchSeq issue the
	// correlation IDs carried by lifecycle spans.
	meter    *trace.Meter
	reqID    atomic.Uint64
	batchSeq atomic.Uint64

	// jitterState seeds the xorshift generator behind Retry-After jitter.
	jitterState atomic.Uint64

	// trackMu guards tracks, the registry of per-goroutine span
	// recorders drained by /debug/trace. Workers register on startup
	// (cold path).
	trackMu sync.Mutex
	tracks  []traceTrack

	mu     sync.RWMutex // guards closed and the queue-close handoff
	closed bool
	wg     sync.WaitGroup // batchers + workers
}

// traceTrack pairs a recorder with its display name.
type traceTrack struct {
	name string
	rec  *trace.Recorder
}

func (e *Engine) registerTrack(name string, rec *trace.Recorder) {
	e.trackMu.Lock()
	e.tracks = append(e.tracks, traceTrack{name: name, rec: rec})
	e.trackMu.Unlock()
}

// gemmThreadsFor resolves the Config.GEMMThreads policy after defaults and
// DisableRouting folding: explicit positive values pass through, negative
// forces serial, zero divides GOMAXPROCS by the total inference goroutine
// count (workers × live routes) so intra-GEMM fan-out never oversubscribes
// the engine's own concurrency.
func gemmThreadsFor(cfg Config) int {
	if cfg.GEMMThreads > 0 {
		return cfg.GEMMThreads
	}
	if cfg.GEMMThreads < 0 {
		return 1
	}
	routes := 2 + len(cfg.Variants)
	if cfg.DisableRouting {
		routes = 1
	}
	n := runtime.GOMAXPROCS(0) / (cfg.Workers * routes)
	if n < 1 {
		n = 1
	}
	return n
}

// New builds and starts an engine over a trained pipeline. It panics on
// structurally invalid Variants or Degrade ladders, and on a route network
// the plan compiler rejects (naming the route) — all are programmer
// configuration, not runtime input.
func New(pipe *core.Pipeline, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	if cfg.DisableRouting {
		// Every request is pinned to the hard route; fold the easy
		// route's worker budget into it, so Config() keeps reporting the
		// per-route worker count actually running. The degradation ladder
		// needs the route registry, so the always-convert baseline turns
		// it off.
		cfg.Workers *= 2
		cfg.Degrade.Enabled = false
	}
	e := &Engine{
		cfg:    cfg,
		pipe:   pipe,
		stats:  newEngineStats(cfg),
		meter:  trace.NewMeter(),
		byName: make(map[RouteName]*route),
		fault:  cfg.Fault,
	}
	e.batchFault, _ = cfg.Fault.(BatchFaultInjector)
	if cfg.Resilience.Enabled {
		// Built before the routes so newRoute can attach a breaker to
		// each as it is constructed.
		e.res = &resilienceState{
			budget: resilience.NewBudget(cfg.Resilience.Budget),
			quar:   resilience.NewQuarantine(cfg.Resilience.Quarantine),
		}
	}
	e.jitterState.Store(uint64(time.Now().UnixNano()) | 1)
	e.easy = e.newRoute(RouteEasy,
		func(batchCap int) (*core.PlanSet, error) { return core.PlanSetFor(pipe.Classifier, batchCap) }, false)
	e.hard = e.newRoute(RouteHard, pipe.Plans, true)
	for _, v := range cfg.Variants {
		net := v.Net
		if v.Name == "" || net == nil {
			panic(fmt.Sprintf("engine: variant %q needs a name and a network", v.Name))
		}
		if _, dup := e.byName[v.Name]; dup {
			panic(fmt.Sprintf("engine: duplicate route name %q", v.Name))
		}
		e.newRoute(v.Name,
			func(batchCap int) (*core.PlanSet, error) { return core.PlanSetFor(net, batchCap) }, false)
	}
	live := e.routes
	if cfg.DisableRouting {
		// Only the hard route serves: leave the rest unstarted rather
		// than idling workers that can never receive traffic.
		live = []*route{e.hard}
	}
	// Compile every worker's plans before any goroutine starts, so a
	// network without a plan panics here with nothing left running.
	workers := make([][]*worker, len(live))
	for i, rt := range live {
		for j := 0; j < cfg.Workers; j++ {
			workers[i] = append(workers[i], e.newWorker(rt, j))
		}
	}
	for i, rt := range live {
		e.startRoute(rt, workers[i])
	}
	tensor.SetGEMMThreads(gemmThreadsFor(cfg))
	if cfg.Degrade.Enabled {
		e.deg = newDegrader(cfg.Degrade, e.byName)
		go e.degradeLoop()
	}
	return e
}

func (e *Engine) startRoute(rt *route, workers []*worker) {
	rt.started = true
	e.live = append(e.live, rt)
	e.wg.Add(1)
	go e.batchLoop(rt)
	for _, w := range workers {
		e.wg.Add(1)
		go e.workerLoop(rt, w)
	}
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// IssueRequestID hands out the next correlation ID. The serve layer calls
// it on arrival — before decoding or admission — so every response and log
// record carries a requestId even when the request never reaches Submit.
func (e *Engine) IssueRequestID() uint64 { return e.reqID.Add(1) }

// RetryAfterSeconds estimates how long an overloaded client should back
// off: the fullest route's queue occupancy divided by the engine's
// observed service rate (images completed per second since start), so the
// hint scales with real overload instead of being a constant. Waits above
// the 1s floor are jittered ±10% so synchronized clients don't all retry
// on the same second and re-spike the queue. Clamped to [1, 60] whole
// seconds; with no throughput history it falls back to 1.
func (e *Engine) RetryAfterSeconds() int {
	uptime := time.Since(e.stats.start).Seconds()
	if uptime <= 0 {
		return 1
	}
	worst := 1.0
	for _, rt := range e.live {
		rate := float64(rt.stats.images.Value()) / uptime
		if rate <= 0 {
			continue
		}
		// Workers drain the route in parallel; the queue clears at the
		// route's aggregate rate.
		if wait := float64(len(rt.queue)) / rate; wait > worst {
			worst = wait
		}
	}
	if worst > 1 {
		worst *= 0.9 + 0.2*e.jitter()
	}
	if worst > 60 {
		worst = 60
	}
	if worst < 1 {
		worst = 1
	}
	return int(worst + 0.999) // ceil: never hint a shorter wait than modelled
}

// jitter draws a uniform float in [0,1) from a lock-free xorshift
// generator — cheap enough for the 503 path and dependency-free.
func (e *Engine) jitter() float64 {
	for {
		old := e.jitterState.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if e.jitterState.CompareAndSwap(old, x) {
			return float64(x>>11) / (1 << 53)
		}
	}
}

// Submit classifies one image, blocking until its batch completes, ctx is
// done, or admission fails. A request rejected with ErrOverloaded or
// ErrDeadline consumed no inference capacity. If ctx expires after
// admission the request is executed only if its batch forms before the
// expiry; the batcher sheds already-dead requests at formation time.
func (e *Engine) Submit(ctx context.Context, req Request) (Result, error) {
	if len(req.Pixels) != dataset.Pixels {
		return Result{}, fmt.Errorf("engine: got %d pixels, want %d", len(req.Pixels), dataset.Pixels)
	}
	if err := ctx.Err(); err != nil {
		// Dead on arrival: refuse before touching a queue.
		if errors.Is(err, context.DeadlineExceeded) {
			e.stats.expired.Inc()
			return Result{}, ErrDeadline
		}
		return Result{}, err
	}
	fp, clean := e.admitFingerprint(req.Pixels)
	if !clean {
		return Result{}, ErrPoisoned
	}
	id := req.ID
	if id == 0 {
		id = e.IssueRequestID()
	}
	r := &request{
		id:            id,
		ctx:           ctx,
		pixels:        req.Pixels,
		wantConverted: req.IncludeConverted,
		fp:            fp,
		done:          make(chan outcome, 1),
	}
	rt, shed := e.routeFor(r)
	if shed {
		e.stats.shed.Inc()
		return Result{}, ErrOverloaded
	}
	rt, admitted := e.divert(rt, r)
	if !admitted {
		// Every candidate route's breaker is open: shed with backpressure
		// so clients retry after the cooldown instead of piling on.
		return Result{}, ErrOverloaded
	}

	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return Result{}, ErrClosed
	}
	r.enqueued = time.Now()
	r.tEnq = trace.Now()
	select {
	case rt.queue <- r:
		rt.stats.queued.Inc()
		rt.stats.inflight.Inc()
		e.mu.RUnlock()
	default:
		e.mu.RUnlock()
		e.stats.rejected.Inc()
		return Result{}, ErrOverloaded
	}
	e.stats.submitted.Inc()
	e.deg.noteAdmitted()

	select {
	case out := <-r.done:
		if out.err != nil {
			return Result{}, out.err
		}
		return out.res, nil
	case <-ctx.Done():
		e.stats.abandoned.Inc()
		return Result{}, ctx.Err()
	}
}

// Close stops admission, drains every accepted request through the
// workers, and waits for all engine goroutines to exit. It is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	for _, rt := range e.routes {
		close(rt.queue)
	}
	e.mu.Unlock()
	e.deg.stopController()
	e.wg.Wait()
}
