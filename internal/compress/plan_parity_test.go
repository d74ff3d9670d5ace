package compress

import (
	"testing"

	"cbnet/internal/dataset"
	"cbnet/internal/models"
	"cbnet/internal/nn"
	"cbnet/internal/nn/nntest"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// variantParityNet names one compressed-family network that the engine can
// now mount as a first-class route, for the plan-vs-Forward oracle.
type variantParityNet struct {
	name string
	net  *nn.Sequential
}

func variantParityNets(t *testing.T) []variantParityNet {
	t.Helper()
	base := models.NewLeNet(rng.New(41))
	var nets []variantParityNet

	for _, cfg := range []PruneConfig{
		{Conv2Keep: 1, Conv3Keep: 1, FC1Keep: 1},
		{Conv2Keep: 0.5, Conv3Keep: 0.5, FC1Keep: 0.5},
		{Conv2Keep: 0.25, Conv3Keep: 0.5, FC1Keep: 0.75},
	} {
		p, err := PruneLeNet(base, cfg)
		if err != nil {
			t.Fatalf("PruneLeNet %+v: %v", cfg, err)
		}
		nets = append(nets, variantParityNet{"prune-" + cfg.String(), p})
	}

	sf, err := NewSubFlow(models.NewLeNet(rng.New(42)))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []float64{0.25, 0.5, 1.0} {
		n, err := sf.NetworkAt(u)
		if err != nil {
			t.Fatalf("SubFlow at %v: %v", u, err)
		}
		nets = append(nets, variantParityNet{"subflow-" + n.Name(), n})
	}

	br := models.NewBranchyLeNet(rng.New(43), 0.05)
	light := models.ExtractLightweight(br)
	for _, cfg := range []LightweightPruneConfig{
		{Conv1Keep: 1. / 3., BranchKeep: 1. / 3.},
		{Conv1Keep: 2. / 3., BranchKeep: 2. / 3.},
	} {
		p, err := PruneLightweight(light, cfg)
		if err != nil {
			t.Fatalf("PruneLightweight %v: %v", cfg, err)
		}
		nets = append(nets, variantParityNet{"light-pruned-" + cfg.String(), p})
	}

	nets = append(nets, variantParityNet{"main-net", models.ExtractMainNet(br)})
	return nets
}

// TestVariantPlanParityOracle extends the PR 5 plan-vs-Forward oracle to
// every compressed variant the degradation ladder can mount as a route:
// pruned LeNets, SubFlow utilization levels, the pruned lightweight exit,
// and the BranchyNet main net. Tolerances match the shipped-model oracle:
// scalar dispatch must agree bit for bit (tol 0; the negated range test
// fails on NaN), production dispatch to the blocked-vs-axpy kernel
// tolerance.
func TestVariantPlanParityOracle(t *testing.T) {
	for _, mode := range []struct {
		name    string
		blocked bool
		tol     float32
	}{
		{"scalar-kernels", false, 0},
		{"production-dispatch", tensor.BlockedKernelEnabled(), 1e-5},
	} {
		prev := tensor.SetBlockedKernelForTest(mode.blocked)
		for _, m := range variantParityNets(t) {
			p, err := nn.Compile(m.net, 16)
			if err != nil {
				tensor.SetBlockedKernelForTest(prev)
				t.Fatalf("%s: %v", m.name, err)
			}
			for _, n := range []int{1, 7, 16} {
				x := tensor.New(n, dataset.Pixels)
				x.RandUniform(rng.New(uint64(n)*31+uint64(dataset.Pixels)), 0, 1)
				want := m.net.Forward(x, false)
				got := p.Execute(nil, x)
				if !got.SameShape(want) {
					t.Fatalf("%s/%s batch %d: plan shape %v, want %v", mode.name, m.name, n, got.Shape, want.Shape)
				}
				for i := range want.Data {
					if g, w := got.Data[i], want.Data[i]; g != w && !(g-w >= -mode.tol && g-w <= mode.tol) {
						t.Fatalf("%s/%s batch %d: plan[%d] = %v, forward = %v (|diff| > %g)",
							mode.name, m.name, n, i, got.Data[i], want.Data[i], mode.tol)
					}
				}
			}
		}
		tensor.SetBlockedKernelForTest(prev)
	}
}

// TestVariantPlanBitwiseVsInferScratch pins the fusion invariant for the
// variant routes under production dispatch. It keeps the name of the test
// that compared the plan with the deleted scratch-arena route; its
// reference is now nntest.Unfused, which runs the same batched GEMMs with
// separate activation sweeps, and fused epilogues must not change a single
// bit between them.
func TestVariantPlanBitwiseVsInferScratch(t *testing.T) {
	for _, m := range variantParityNets(t) {
		p, err := nn.Compile(m.net, 16)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		for _, n := range []int{1, 7, 16} {
			x := tensor.New(n, dataset.Pixels)
			x.RandUniform(rng.New(uint64(n)*17+uint64(dataset.Pixels)), 0, 1)
			want, err := nntest.Unfused(m.net, x)
			if err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			got := p.Execute(nil, x)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%s batch %d: plan[%d] = %v, unfused = %v (not bitwise equal)",
						m.name, n, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}
