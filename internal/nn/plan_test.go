package nn

import (
	"runtime/debug"
	"strings"
	"testing"

	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// planTestNet has a plan step for every layer type the compiler knows —
// conv, pool, dense and each activation, fused and standalone — plus the
// identity-at-inference layers the compiler drops.
func planTestNet(r *rng.RNG) *Sequential {
	return NewSequential("plan-test",
		MustConv2D("conv1", 1, 12, 12, 4, 3, 3, 1, 1, r),
		NewReLU("relu1"),
		MustMaxPool2D("pool1", 4, 12, 12, 2, 2),
		MustConv2D("conv2", 4, 6, 6, 6, 3, 3, 1, 0, r),
		NewSigmoid("sig"),
		NewDense("fc1", 6*4*4, 32, r),
		NewDropout("drop", 0.3, rng.New(5)),
		NewActivityRegularizer("reg", 1e-6),
		NewDense("fc2", 32, 10, r),
		NewSoftmax("sm"),
	)
}

// TestCompileFusionAndElision pins the compiler's structural output on the
// mixed test net: identity layers vanish, activations fold into their
// producing GEMM steps, and a dense layer with no trailing activation stays
// a bare step.
func TestCompileFusionAndElision(t *testing.T) {
	net := planTestNet(rng.New(42))
	p, err := Compile(net, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"conv1+relu1", "pool1", "conv2+sig", "fc1", "fc2+sm"}
	got := p.StepNames()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("compiled steps %v, want %v", got, want)
	}
	if p.InWidth() != 144 || p.OutWidth() != 10 || p.BatchCap() != 16 {
		t.Fatalf("plan geometry in=%d out=%d cap=%d, want 144/10/16", p.InWidth(), p.OutWidth(), p.BatchCap())
	}
}

func TestCompileErrors(t *testing.T) {
	r := rng.New(1)
	if _, err := Compile(NewSequential("bad", NewReLU("r"), NewDense("fc", 4, 2, r)), 8); err == nil {
		t.Error("leading activation with unknown width: want error")
	}
	if _, err := Compile(NewSequential("empty", NewDropout("d", 0.5, r)), 8); err == nil {
		t.Error("no shape-bearing layer: want error")
	}
	if _, err := Compile(planTestNet(r), 0); err == nil {
		t.Error("non-positive batch capacity: want error")
	}
	if _, err := Compile(NewSequential("mismatch", NewDense("a", 4, 8, r), NewDense("b", 9, 2, r)), 8); err == nil {
		t.Error("width mismatch between layers: want error")
	}
}

// TestPlanMatchesForward pins the plan to the plain Forward path: bit for
// bit when both run the same scalar kernels (tol 0; the negated range test
// fails on NaN), and within the blocked-kernel oracle tolerance under
// production dispatch, where Forward's per-sample products and the plan's
// batched products may pick different (individually oracle-tested)
// kernels.
func TestPlanMatchesForward(t *testing.T) {
	for _, forced := range []struct {
		name    string
		blocked bool
		tol     float32
	}{
		{"scalar-kernels", false, 0},
		{"production-dispatch", tensor.BlockedKernelEnabled(), 1e-5},
	} {
		prev := tensor.SetBlockedKernelForTest(forced.blocked)
		net := planTestNet(rng.New(7))
		p, err := Compile(net, 16)
		if err != nil {
			tensor.SetBlockedKernelForTest(prev)
			t.Fatal(err)
		}
		for _, n := range []int{1, 7, 16} {
			x := tensor.New(n, 144)
			x.RandUniform(rng.New(uint64(n+3)), -1, 1)
			want := net.Forward(x, false)
			got := p.Execute(nil, x)
			for i := range want.Data {
				if g, w := got.Data[i], want.Data[i]; g != w && !(g-w >= -forced.tol && g-w <= forced.tol) {
					t.Fatalf("%s batch %d: plan output[%d] = %v, forward = %v", forced.name, n, i, got.Data[i], want.Data[i])
				}
			}
		}
		tensor.SetBlockedKernelForTest(prev)
	}
}

// TestPlanRepeatedMixedBatches reuses one plan across varying batch sizes,
// the engine worker's usage pattern, including executions into a
// caller-owned destination.
func TestPlanRepeatedMixedBatches(t *testing.T) {
	net := planTestNet(rng.New(9))
	p, err := Compile(net, 16)
	if err != nil {
		t.Fatal(err)
	}
	for round, n := range []int{4, 1, 16, 2, 16, 8} {
		x := tensor.New(n, 144)
		x.RandUniform(rng.New(uint64(round+1)), -1, 1)
		want := net.Forward(x, false)
		var got *tensor.Tensor
		if round%2 == 0 {
			got = p.Execute(nil, x)
		} else {
			dst := tensor.New(n, p.OutWidth())
			if out := p.Execute(dst, x); out != dst {
				t.Fatalf("round %d: Execute(dst, x) returned %p, want dst", round, out)
			}
			got = dst
		}
		for i := range want.Data {
			d := got.Data[i] - want.Data[i]
			if d < -1e-5 || d > 1e-5 {
				t.Fatalf("round %d (batch %d): output[%d] = %v, want %v", round, n, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestInferScratchMatchesForward keeps the name of the test that pinned the
// scratch-arena inference route to Forward; the plan took over that route,
// so it pins the plan at that test's batch sizes and seed: same shape, and
// values within the blocked-kernel oracle tolerance under production
// dispatch.
func TestInferScratchMatchesForward(t *testing.T) {
	net := planTestNet(rng.New(42))
	p, err := Compile(net, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3, 16} {
		x := tensor.New(n, 144)
		x.RandUniform(rng.New(uint64(n)), -1, 1)
		want := net.Forward(x, false)
		got := p.Execute(nil, x)
		if !got.SameShape(want) {
			t.Fatalf("batch %d: plan shape %v, want %v", n, got.Shape, want.Shape)
		}
		for i := range want.Data {
			if d := got.Data[i] - want.Data[i]; !(d >= -1e-5 && d <= 1e-5) {
				t.Fatalf("batch %d: plan output[%d] = %v, forward = %v", n, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestInferScratchRepeatedRounds keeps the name of the test that reused one
// scratch arena across rounds; each plan now owns its buffers, so it runs
// the engine's pattern of one plan per worker over shared weights: two
// plans of one net, interleaved across rounds of varying batch sizes. Each
// output is checked after the other plan has run, so plans that shared a
// buffer would fail.
func TestInferScratchRepeatedRounds(t *testing.T) {
	net := planTestNet(rng.New(7))
	var plans [2]*Plan
	for i := range plans {
		p, err := Compile(net, 16)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = p
	}
	for round, n := range []int{4, 1, 16, 2, 16, 8} {
		var xs, outs [2]*tensor.Tensor
		for i, p := range plans {
			xs[i] = tensor.New(n, 144)
			xs[i].RandUniform(rng.New(uint64(2*round+i+1)), -1, 1)
			outs[i] = p.Execute(nil, xs[i])
		}
		for i := range plans {
			want := net.Forward(xs[i], false)
			for j := range want.Data {
				if d := outs[i].Data[j] - want.Data[j]; !(d >= -1e-5 && d <= 1e-5) {
					t.Fatalf("round %d (batch %d) plan %d: output[%d] = %v, want %v", round, n, i, j, outs[i].Data[j], want.Data[j])
				}
			}
		}
	}
}

// TestConvPlanBatchedIm2Col checks the conv step's batch-wide im2col and
// single GEMM against the per-sample Forward on ragged and aligned batch
// sizes, with stride and padding.
func TestConvPlanBatchedIm2Col(t *testing.T) {
	conv := MustConv2D("c", 3, 9, 9, 5, 3, 3, 2, 1, rng.New(3))
	p, err := Compile(NewSequential("conv", conv), 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 7, 32} {
		x := tensor.New(n, conv.InSize())
		x.RandUniform(rng.New(uint64(n+100)), -1, 1)
		want := conv.Forward(x, false)
		got := p.Execute(nil, x)
		for i := range want.Data {
			if d := got.Data[i] - want.Data[i]; !(d >= -1e-5 && d <= 1e-5) {
				t.Fatalf("batch %d: conv plan output[%d] = %v, forward = %v", n, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestPlanBatchCapPanics(t *testing.T) {
	p, err := Compile(planTestNet(rng.New(3)), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("batch beyond capacity: want panic")
		}
	}()
	p.Execute(nil, tensor.New(5, 144))
}

// TestPlanExecuteZeroAlloc is the tentpole's allocation contract: a warm
// Plan.Execute performs no heap allocations (AllocsPerRun pins GOMAXPROCS
// to 1, the serial-kernel regime the single-core edge deployment runs in).
func TestPlanExecuteZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc assertion only meaningful without -race")
	}
	net := planTestNet(rng.New(11))
	p, err := Compile(net, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, n := range []int{1, 16} {
		x := tensor.New(n, 144)
		x.RandUniform(rng.New(uint64(n)), -1, 1)
		p.Execute(nil, x)
		p.Execute(nil, x)
		allocs := testing.AllocsPerRun(30, func() { p.Execute(nil, x) })
		if allocs != 0 {
			t.Errorf("Plan.Execute batch %d: %v allocs per warm call, want 0", n, allocs)
		}
	}
}

// TestDenseBackwardPackScratchAllocs pins the training-path satellite: a
// dense backward step allocates only its returned dx once the layer's
// retained packing panels are warm.
func TestDenseBackwardPackScratchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	d := NewDense("fc", 128, 64, rng.New(5))
	x := tensor.New(32, 128)
	x.RandUniform(rng.New(6), -1, 1)
	grad := tensor.New(32, 64)
	grad.RandUniform(rng.New(7), -1, 1)
	d.Forward(x, true)
	d.Backward(grad) // warm panels
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(20, func() { _ = d.Backward(grad) })
	// Only the returned dx may allocate: tensor.New costs four allocations
	// (variadic shape arg, header, shape copy, data). The pre-scratch
	// implementation paid three full product tensors plus panel churn.
	if allocs > 4 {
		t.Errorf("dense backward: %v allocs per warm step, want ≤ 4 (dx only)", allocs)
	}
}
