// Package bench is the repo's machine-readable performance harness: a
// registry of kernel-, layer-, and engine-level benchmarks runnable from
// cbnet-bench (-exp perf), producing a BENCH_<date>.json snapshot so the
// perf trajectory across PRs is diffable instead of anecdotal.
//
// Each benchmark is a standard testing.B function measured with
// testing.Benchmark, so numbers match `go test -bench` output for the same
// shapes.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cbnet/internal/chaos"
	"cbnet/internal/core"
	"cbnet/internal/dataset"
	"cbnet/internal/engine"
	"cbnet/internal/models"
	"cbnet/internal/resilience"
	"cbnet/internal/rng"
	"cbnet/internal/slo"
	"cbnet/internal/tensor"
	"cbnet/internal/trace"
)

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	// Gomaxprocs is the parallelism the row was captured under. The
	// multi-thread scaling rows (-t2/-t4/-t8) only mean what they claim on
	// hosts where this is at least the row's thread count; on smaller
	// capture hosts the extra threads time-slice and the row measures pool
	// overhead instead of speedup.
	Gomaxprocs int                `json:"gomaxprocs"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the full perf capture written to BENCH_<date>.json.
type Snapshot struct {
	Schema     string   `json:"schema"`
	Date       string   `json:"date"`
	GoVersion  string   `json:"goVersion"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GEMMKernel string   `json:"gemmKernel,omitempty"`
	Results    []Result `json:"results"`
}

type benchDef struct {
	name string
	fn   func(b *testing.B)
}

// registry lists every perf benchmark in reporting order. Names are
// hierarchical so future additions group naturally in diffs.
func registry() []benchDef {
	return []benchDef{
		{"gemm/naive/256x256x256", benchGEMMNaive256},
		{"gemm/dispatch/256x256x256", benchGEMMDispatch256},
		{"gemm/dispatch/256x256x256-t2", benchGEMMDispatchThreads(2)},
		{"gemm/dispatch/256x256x256-t4", benchGEMMDispatchThreads(4)},
		{"gemm/dispatch/256x256x256-t8", benchGEMMDispatchThreads(8)},
		{"gemm/dispatch/conv2-batch32", benchShape(48, 75, 3200)},
		{"gemm/dispatch/conv3-batch32", benchShape(256, 1200, 32)},
		{"gemm/dispatch/dense784x128-batch32", benchShape(32, 784, 128)},
		{"gemm/gemv/784x128", benchGemv},
		{"rowops/matvec/256x1200", benchMatVec},
		{"rowops/addrowvector/32x784", benchAddRowVector},
		{"rowops/sumrows/256x784", benchSumRows},
		{"pipeline/classify-direct/batch16", benchClassifyDirect},
		{"pipeline/infer/batch16", benchInfer},
		{"pipeline/forward-batch16-t4", benchInferThreads(4)},
		{"pipeline/infer-traced/batch16", benchInferTraced},
		{"engine/throughput/routed", benchEngineThroughput},
		{"engine/slo-observe", benchSLOObserve},
		{"engine/breaker-observe", benchBreakerObserve},
		{"engine/bisect-overhead", benchBisectOverhead},
	}
}

// Names returns the registered benchmark names in order.
func Names() []string {
	defs := registry()
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}

// Run measures the selected benchmarks (all when filter is empty; otherwise
// those whose name contains any filter substring) and assembles a snapshot.
func Run(now time.Time, filters ...string) Snapshot {
	snap := Snapshot{
		Schema:     "cbnet-bench-perf/v1",
		Date:       now.UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GEMMKernel: tensor.GEMMKernelName(),
	}
	for _, d := range registry() {
		if !matches(d.name, filters) {
			continue
		}
		r := testing.Benchmark(d.fn)
		res := Result{
			Name:        d.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Gomaxprocs:  runtime.GOMAXPROCS(0),
		}
		if len(r.Extra) > 0 {
			res.Metrics = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				res.Metrics[k] = v
			}
		}
		snap.Results = append(snap.Results, res)
	}
	return snap
}

func matches(name string, filters []string) bool {
	if len(filters) == 0 {
		return true
	}
	for _, f := range filters {
		if strings.Contains(name, f) {
			return true
		}
	}
	return false
}

// WriteJSON writes the snapshot with stable formatting for clean diffs.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Summary renders a human-readable table of the snapshot.
func (s Snapshot) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "perf snapshot %s (%s %s/%s, GOMAXPROCS=%d, GEMM kernel=%s)\n",
		s.Date, s.GoVersion, s.GOOS, s.GOARCH, s.GOMAXPROCS, s.GEMMKernel)
	for _, r := range s.Results {
		fmt.Fprintf(&sb, "  %-40s %12.0f ns/op %6d allocs/op", r.Name, r.NsPerOp, r.AllocsPerOp)
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, "  %s=%.2f", k, r.Metrics[k])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Kernel benchmarks.

func fillPattern(data []float32) {
	for i := range data {
		data[i] = float32(i%13)*0.1 - 0.6
	}
}

func benchGEMMAt(b *testing.B, m, k, n int, f func(a, bb, c []float32)) {
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	c := make([]float32, m*n)
	fillPattern(a)
	fillPattern(bb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(a, bb, c)
	}
	b.ReportMetric(2*float64(m)*float64(k)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

func benchGEMMNaive256(b *testing.B) {
	benchGEMMAt(b, 256, 256, 256, func(a, bb, c []float32) {
		tensor.GEMMNaive(a, bb, c, 256, 256, 256, 1, 0)
	})
}

func benchGEMMDispatch256(b *testing.B) {
	benchGEMMAt(b, 256, 256, 256, func(a, bb, c []float32) {
		tensor.GEMM(a, bb, c, 256, 256, 256, 1, 0)
	})
}

// benchGEMMDispatchThreads is the single-GEMM scaling curve: the 256³
// dispatch row with the intra-GEMM worker pool forced to the given fan-out.
// Read against the -t1 (plain dispatch) row: the ratio is the speedup one
// large GEMM gets from the pool on this host — per-row gomaxprocs says
// whether the threads had cores to land on.
func benchGEMMDispatchThreads(threads int) func(b *testing.B) {
	return func(b *testing.B) {
		prev := tensor.SetGEMMThreads(threads)
		defer tensor.SetGEMMThreads(prev)
		benchGEMMAt(b, 256, 256, 256, func(a, bb, c []float32) {
			tensor.GEMM(a, bb, c, 256, 256, 256, 1, 0)
		})
	}
}

func benchShape(m, k, n int) func(b *testing.B) {
	return func(b *testing.B) {
		benchGEMMAt(b, m, k, n, func(a, bb, c []float32) {
			tensor.GEMM(a, bb, c, m, k, n, 1, 0)
		})
	}
}

func benchGemv(b *testing.B) {
	benchGEMMAt(b, 1, 784, 128, func(a, bb, c []float32) {
		tensor.GEMM(a, bb, c, 1, 784, 128, 1, 0)
	})
}

func benchMatVec(b *testing.B) {
	const m, k = 256, 1200
	a := make([]float32, m*k)
	x := make([]float32, k)
	y := make([]float32, m)
	fillPattern(a)
	fillPattern(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatVecInto(y, a, x, m, k)
	}
}

func benchAddRowVector(b *testing.B) {
	t := tensor.New(32, 784)
	v := tensor.New(784)
	fillPattern(t.Data)
	fillPattern(v.Data)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.AddRowVector(v)
	}
}

func benchSumRows(b *testing.B) {
	t := tensor.New(256, 784)
	fillPattern(t.Data)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = t.SumRows()
	}
}

// ---------------------------------------------------------------------------
// Pipeline and engine benchmarks.

func perfPipeline() *core.Pipeline {
	br := models.NewBranchyLeNet(rng.New(31), 0.05)
	return &core.Pipeline{
		AE:         models.NewTableIAE(dataset.MNIST, rng.New(32)),
		Classifier: models.ExtractLightweight(br),
	}
}

func perfBatch(n int) *tensor.Tensor {
	x := tensor.New(n, dataset.Pixels)
	x.RandUniform(rng.New(7), 0, 1)
	return x
}

// benchClassifyDirect measures the serving easy route: the compiled
// classifier plan with fused GEMM epilogues.
func benchClassifyDirect(b *testing.B) {
	pipe := perfPipeline()
	x := perfBatch(16)
	dst := make([]int, 16)
	pipe.ClassifyDirectInto(dst, x) // compile plans outside the window
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.ClassifyDirectInto(dst, x)
	}
	b.ReportMetric(16*float64(b.N)/b.Elapsed().Seconds(), "imgs/s")
}

// benchInfer measures the full serving path (AE plan + classifier plan).
func benchInfer(b *testing.B) {
	pipe := perfPipeline()
	x := perfBatch(16)
	dst := make([]int, 16)
	pipe.InferInto(dst, x) // compile plans outside the window
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.InferInto(dst, x)
	}
	b.ReportMetric(16*float64(b.N)/b.Elapsed().Seconds(), "imgs/s")
}

// benchInferThreads measures the full serving forward pass with intra-GEMM
// parallelism engaged — the per-worker latency picture when the engine
// grants each worker a multi-thread GEMM budget.
func benchInferThreads(threads int) func(b *testing.B) {
	return func(b *testing.B) {
		prev := tensor.SetGEMMThreads(threads)
		defer tensor.SetGEMMThreads(prev)
		pipe := perfPipeline()
		x := perfBatch(16)
		dst := make([]int, 16)
		pipe.InferInto(dst, x) // compile plans outside the window
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pipe.InferInto(dst, x)
		}
		b.ReportMetric(16*float64(b.N)/b.Elapsed().Seconds(), "imgs/s")
	}
}

// benchInferTraced measures the full serving path on a plan set with the
// observability layer attached — span ring plus step meter, exactly the
// engine worker's wiring. Read against pipeline/infer/batch16: the gap is
// the tracing overhead, which the regression test in the repo root bounds
// at <2%.
func benchInferTraced(b *testing.B) {
	pipe := perfPipeline()
	ps, err := pipe.Plans(16)
	if err != nil {
		b.Fatal(err)
	}
	ps.EnableTracing(trace.NewRecorder(256), trace.NewMeter())
	x := perfBatch(16)
	dst := make([]int, 16)
	ps.InferInto(dst, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.InferInto(dst, x)
	}
	b.ReportMetric(16*float64(b.N)/b.Elapsed().Seconds(), "imgs/s")
}

func benchEngineThroughput(b *testing.B) {
	pipe := perfPipeline()
	e := engine.New(pipe, engine.Config{
		MaxBatch: 32, MaxWait: 500 * time.Microsecond, QueueDepth: 4096,
	})
	defer e.Close()
	imgs := make([][]float32, 64)
	r := rng.New(33)
	for i := range imgs {
		imgs[i] = dataset.RenderSample(dataset.MNIST, i%dataset.NumClasses, i%5 == 4, r)
	}
	ctx := context.Background()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := e.Submit(ctx, engine.Request{Pixels: imgs[i%len(imgs)]}); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "imgs/s")
}

// benchSLOObserve measures the serve layer's per-request SLO accounting:
// one Observe on a live tracker, which must stay a pair of atomic adds.
// The checkpoint roll and burn-rate evaluation run on the monitor
// goroutine, never on this path.
func benchSLOObserve(b *testing.B) {
	t, err := slo.NewTracker(slo.Config{Objective: slo.Objective{
		Name: "availability", Target: 0.999,
	}}, time.Now())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Observe(i&7 != 0)
	}
}

// benchBreakerObserve measures the resilience tax added to every healthy
// micro-batch: one circuit-breaker admission check plus one outcome
// observation and one retry-budget deposit — a handful of atomics that
// must stay at zero allocations (pinned by internal/resilience's
// AllocsPerRun test; this row guards the latency).
func benchBreakerObserve(b *testing.B) {
	br := resilience.NewBreaker(resilience.BreakerConfig{}, nil)
	bud := resilience.NewBudget(resilience.BudgetConfig{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if br.Allow() {
			br.Observe(true)
		}
		bud.OnSuccess()
	}
}

// benchBisectOverhead measures the failure-isolation worst case end to
// end: a 16-request coalesced batch carrying one never-seen-before poison
// pill panics, and bisection re-runs sub-batches until the 15 innocents
// are served and the pill is convicted. The injected 5ms batch latency
// wedges the worker so the round coalesces (and dominates the row, which
// keeps it stable); the retry budget is made effectively infinite so the
// drill is never cut short.
func benchBisectOverhead(b *testing.B) {
	const poisonVal = float32(0.55555)
	inj := chaos.NewInjector()
	inj.SetLatency("", 5*time.Millisecond)
	inj.SetPoisonValue(poisonVal)
	pipe := perfPipeline()
	e := engine.New(pipe, engine.Config{
		MaxBatch: 32, MaxWait: 20 * time.Millisecond, Workers: 1, QueueDepth: 256,
		HardnessThreshold: 1000, // one route: the whole round coalesces
		Fault:             inj,
		Resilience: engine.ResilienceConfig{
			Enabled: true,
			Budget:  resilience.BudgetConfig{Ratio: 1, Burst: 1 << 20, Initial: 1 << 20},
			// A breaker that cannot trip (100% failures over a window the
			// drill's successes always dilute): this row measures bisection,
			// and an open breaker would divert the stream mid-measurement.
			Breaker: resilience.BreakerConfig{Window: 256, MinSamples: 256, FailureThreshold: 1},
		},
	})
	defer e.Close()

	r := rng.New(34)
	imgs := make([][]float32, 15)
	for i := range imgs {
		imgs[i] = dataset.RenderSample(dataset.MNIST, i%dataset.NumClasses, false, r)
	}
	pill := dataset.RenderSample(dataset.MNIST, 0, false, rng.New(35))
	pill[0] = poisonVal
	ctx := context.Background()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh fingerprint each round, so the pill is bisected and
		// convicted again instead of being rejected at admission.
		pill[1] = float32(i%997) / 997
		pill[2] = float32(i/997%997) / 997
		go e.Submit(ctx, engine.Request{Pixels: imgs[0]}) // wedge the worker
		time.Sleep(2 * time.Millisecond)
		var wg sync.WaitGroup
		for _, img := range imgs {
			wg.Add(1)
			go func(img []float32) {
				defer wg.Done()
				_, _ = e.Submit(ctx, engine.Request{Pixels: img})
			}(img)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = e.Submit(ctx, engine.Request{Pixels: pill})
		}()
		wg.Wait()
	}
	b.StopTimer()
	if snap := e.Resilience(); snap != nil && b.N > 0 {
		b.ReportMetric(float64(snap.BisectSaved)/float64(b.N), "saved/op")
	}
}
