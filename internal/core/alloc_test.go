package core

import (
	"fmt"
	"runtime/debug"
	"strings"
	"testing"

	"cbnet/internal/dataset"
	"cbnet/internal/models"
	"cbnet/internal/nn"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// The serving path's zero-allocation promise: once a pipeline's compiled
// plans have been built, steady-state classification performs no heap
// allocations. AllocsPerRun pins GOMAXPROCS to 1, which also keeps the
// kernels on their serial (closure-free) paths — the same regime the
// alloc-sensitive single-core edge deployment runs in.

func allocTestPipeline() *Pipeline {
	br := models.NewBranchyLeNet(rng.New(11), 0.05)
	return &Pipeline{
		AE:         models.NewTableIAE(dataset.MNIST, rng.New(12)),
		Classifier: models.ExtractLightweight(br),
	}
}

func testBatch(n int) *tensor.Tensor {
	x := tensor.New(n, dataset.Pixels)
	x.RandUniform(rng.New(13), 0, 1)
	return x
}

// measureSteadyState warms the plans with two full passes, then measures.
// GC is disabled during the measurement so sync.Pool eviction can't charge
// unrelated allocations to the hot path.
func measureSteadyState(f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	f()
	return testing.AllocsPerRun(30, f)
}

func TestClassifyDirectIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc assertion only meaningful without -race")
	}
	pipe := allocTestPipeline()
	for _, n := range []int{1, 16} {
		x := testBatch(n)
		dst := make([]int, n)
		allocs := measureSteadyState(func() {
			pipe.ClassifyDirectInto(dst, x)
		})
		if allocs != 0 {
			t.Errorf("ClassifyDirectInto batch %d: %v allocs per warm call, want 0", n, allocs)
		}
	}
}

func TestInferIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc assertion only meaningful without -race")
	}
	pipe := allocTestPipeline()
	for _, n := range []int{1, 16} {
		x := testBatch(n)
		dst := make([]int, n)
		allocs := measureSteadyState(func() {
			pipe.InferInto(dst, x)
		})
		if allocs != 0 {
			t.Errorf("InferInto batch %d: %v allocs per warm call, want 0", n, allocs)
		}
	}
}

// TestPlanSetZeroAlloc pins the engine worker's actual calls: a privately
// owned PlanSet classifying warm batches must not allocate.
func TestPlanSetZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc assertion only meaningful without -race")
	}
	pipe := allocTestPipeline()
	ps, err := pipe.Plans(16)
	if err != nil {
		t.Fatal(err)
	}
	x := testBatch(16)
	dst := make([]int, 16)
	allocs := measureSteadyState(func() { ps.InferInto(dst, x) })
	if allocs != 0 {
		t.Errorf("PlanSet.InferInto: %v allocs per warm call, want 0", allocs)
	}
	allocs = measureSteadyState(func() { ps.ClassifyDirectInto(dst, x) })
	if allocs != 0 {
		t.Errorf("PlanSet.ClassifyDirectInto: %v allocs per warm call, want 0", allocs)
	}
}

// TestPooledWrappersBounded keeps the convenience wrappers honest: Infer
// and ClassifyDirect may allocate only the prediction slice, not per-layer
// buffers.
func TestPooledWrappersBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc-bound assertion only meaningful without -race")
	}
	pipe := allocTestPipeline()
	x := testBatch(16)
	allocs := measureSteadyState(func() { _ = pipe.ClassifyDirect(x) })
	// One []int result; the pre-plan implementation allocated hundreds of
	// times per call.
	if allocs > 8 {
		t.Errorf("ClassifyDirect: %v allocs per warm call, want ≤ 8", allocs)
	}
	allocs = measureSteadyState(func() { _ = pipe.Infer(x) })
	if allocs > 8 {
		t.Errorf("Infer: %v allocs per warm call, want ≤ 8", allocs)
	}
}

// TestInferIntoMatchesInfer guards the plan-backed fast paths against each
// other and against the Forward reference.
func TestInferIntoMatchesInfer(t *testing.T) {
	pipe := allocTestPipeline()
	x := testBatch(16)
	want := pipe.Infer(x)
	dst := make([]int, 16)
	pipe.InferInto(dst, x)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("InferInto[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
	wantD := pipe.ClassifyDirect(x)
	pipe.ClassifyDirectInto(dst, x)
	for i := range wantD {
		if dst[i] != wantD[i] {
			t.Fatalf("ClassifyDirectInto[%d] = %d, want %d", i, dst[i], wantD[i])
		}
	}

	// Forward stays the reference: the compiled plans must agree with it
	// prediction-for-prediction.
	refPreds := make([]int, 16)
	pipe.Classifier.Forward(pipe.AE.Net.Forward(x, false), false).ArgMaxRows(refPreds)
	for i := range want {
		if want[i] != refPreds[i] {
			t.Fatalf("plan pred[%d] = %d, Forward = %d", i, want[i], refPreds[i])
		}
	}
}

// TestInferIntoPanicsOnUncompilableClassifier: plans are the only inference
// path, so a classifier the plan compiler rejects fails loudly with the
// compile error instead of serving.
func TestInferIntoPanicsOnUncompilableClassifier(t *testing.T) {
	pipe := allocTestPipeline()
	r := rng.New(5)
	pipe.Classifier = nn.NewSequential("mismatch",
		nn.NewDense("a", dataset.Pixels, 8, r), nn.NewDense("b", 9, dataset.NumClasses, r))
	_, compileErr := nn.Compile(pipe.Classifier, 16)
	if compileErr == nil {
		t.Fatal("width-mismatched classifier compiled")
	}
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("InferInto on an uncompilable classifier: want panic")
		}
		if msg := fmt.Sprint(p); !strings.Contains(msg, compileErr.Error()) {
			t.Fatalf("panic %q does not carry the compile error %q", msg, compileErr)
		}
	}()
	pipe.InferInto(make([]int, 4), testBatch(4))
}

// TestPipelinePlanCacheInvalidation: replacing the pipeline's exported
// networks must invalidate the cached plan set, not keep serving the old
// weights.
func TestPipelinePlanCacheInvalidation(t *testing.T) {
	pipe := allocTestPipeline()
	x := testBatch(8)
	_ = pipe.Infer(x) // compile + cache plans for the original networks

	br2 := models.NewBranchyLeNet(rng.New(99), 0.05)
	pipe.Classifier = models.ExtractLightweight(br2)
	got := pipe.ClassifyDirect(x)

	// Reference: Forward always reads the current field.
	want := make([]int, 8)
	pipe.Classifier.Forward(x, false).ArgMaxRows(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pred[%d] = %d after classifier swap, want %d (stale plan cache?)", i, got[i], want[i])
		}
	}
}

// TestPipelinePlanGrowth re-compiles transparently when a batch exceeds the
// private plan set's capacity.
func TestPipelinePlanGrowth(t *testing.T) {
	pipe := allocTestPipeline()
	small := testBatch(4)
	preds := pipe.Infer(small)
	if len(preds) != 4 {
		t.Fatalf("got %d preds, want 4", len(preds))
	}
	big := testBatch(64) // beyond the lazily compiled minimum capacity of 16
	predsBig := pipe.Infer(big)
	if len(predsBig) != 64 {
		t.Fatalf("got %d preds, want 64", len(predsBig))
	}
	for i := 0; i < 4; i++ {
		if predsBig[i] != preds[i] {
			t.Fatalf("pred[%d] changed after plan growth: %d vs %d", i, predsBig[i], preds[i])
		}
	}
}
