// Package nntest holds test support for code that compiles nn networks
// into plans.
package nntest

import (
	"cbnet/internal/nn"
	"cbnet/internal/tensor"
)

// Unfused runs net at inference on the batch x one layer at a time: each
// dense, conv and pool layer through its own single-layer plan, whose GEMM
// epilogue adds only the bias, and every other layer through its Forward.
// It is the unfused reference for a compiled plan: the same batched GEMMs
// with separate activation sweeps, so under any kernel dispatch a fused
// plan must match it bit for bit.
func Unfused(net *nn.Sequential, x *tensor.Tensor) (*tensor.Tensor, error) {
	for _, l := range net.Layers {
		switch l.(type) {
		case *nn.Dense, *nn.Conv2D, *nn.MaxPool2D:
			p, err := nn.Compile(nn.NewSequential(l.Name(), l), x.Shape[0])
			if err != nil {
				return nil, err
			}
			x = p.Execute(nil, x)
		default:
			x = l.Forward(x, false)
		}
	}
	return x, nil
}
