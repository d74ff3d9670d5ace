package nn

import (
	"sync"
	"testing"

	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// wideTestNet is big enough that its dense GEMM steps cross the tensor
// package's parallel threshold, so Execute actually exercises the intra-GEMM
// worker pool (the plan-test net's products are all below it).
func wideTestNet(r *rng.RNG) *Sequential {
	return NewSequential("wide-test",
		NewDense("fc1", 784, 512, r),
		NewReLU("relu1"),
		NewDense("fc2", 512, 256, r),
		NewReLU("relu2"),
		NewDense("fc3", 256, 10, r),
		NewSoftmax("sm"),
	)
}

// TestPlanExecuteParallelParity pins Plan.Execute's output under intra-GEMM
// parallelism to the serial result, bitwise: the pool only re-orders
// independent tile write-backs.
func TestPlanExecuteParallelParity(t *testing.T) {
	net := wideTestNet(rng.New(7))
	const batch = 32
	p, err := Compile(net, batch)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(batch, 784)
	fillPlanTestInput(x.Data, 3)

	prev := tensor.SetGEMMThreads(1)
	defer tensor.SetGEMMThreads(prev)
	want := append([]float32(nil), p.Execute(nil, x).Data...)

	for _, threads := range []int{2, 4} {
		tensor.SetGEMMThreads(threads)
		got := p.Execute(nil, x)
		for i := range want {
			if got.Data[i] != want[i] {
				t.Fatalf("threads=%d: Execute output[%d] = %g, serial %g (want bitwise equal)", threads, i, got.Data[i], want[i])
			}
		}
	}
}

// TestPlanExecuteConcurrentWithGEMMPool is the serving shape under -race:
// several workers each own a Plan (plans are single-goroutine) and execute
// concurrently while every large GEMM step also fans out over the shared
// worker pool.
func TestPlanExecuteConcurrentWithGEMMPool(t *testing.T) {
	net := wideTestNet(rng.New(7))
	const batch = 32
	ref, err := Compile(net, batch)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(batch, 784)
	fillPlanTestInput(x.Data, 3)

	prev := tensor.SetGEMMThreads(4)
	defer tensor.SetGEMMThreads(prev)
	want := append([]float32(nil), ref.Execute(nil, x).Data...)

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		p, err := Compile(net, batch)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, p *Plan) {
			defer wg.Done()
			for it := 0; it < 4; it++ {
				out := p.Execute(nil, x)
				for i := range want {
					if out.Data[i] != want[i] {
						errs <- "worker output diverged from reference"
						return
					}
				}
			}
		}(w, p)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// fillPlanTestInput is a deterministic xorshift fill, kept local so this
// file has no dependency on the tensor package's test helpers.
func fillPlanTestInput(data []float32, seed uint32) {
	s := seed
	for i := range data {
		s ^= s << 13
		s ^= s >> 17
		s ^= s << 5
		data[i] = float32(int32(s%2048)-1024) / 1024
	}
}
