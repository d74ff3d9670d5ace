package nn_test

import (
	"testing"

	"cbnet/internal/nn"
	"cbnet/internal/nn/nntest"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// TestPlanMatchesInferScratch keeps the name of the test that compared the
// fused plan with the unfused scratch-arena route. It asserts the same
// invariant against nntest.Unfused, which runs the same batched GEMMs with
// separate activation sweeps: under production dispatch, fusing bias and
// activation into the GEMM epilogue must not change a single bit.
func TestPlanMatchesInferScratch(t *testing.T) {
	net := nn.PlanTestNet(rng.New(42))
	p, err := nn.Compile(net, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3, 16} {
		x := tensor.New(n, 144)
		x.RandUniform(rng.New(uint64(n)), -1, 1)
		want, err := nntest.Unfused(net, x)
		if err != nil {
			t.Fatal(err)
		}
		got := p.Execute(nil, x)
		if !got.SameShape(want) {
			t.Fatalf("batch %d: plan shape %v, want %v", n, got.Shape, want.Shape)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("batch %d: plan output[%d] = %v, unfused = %v (not bitwise equal)", n, i, got.Data[i], want.Data[i])
			}
		}
	}
}
