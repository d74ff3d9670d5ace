package main

import (
	"encoding/json"
	"fmt"

	"cbnet/internal/dataset"
	"cbnet/internal/engine"
	"cbnet/internal/rng"
	"cbnet/internal/serve"
)

// workload is one traffic mix: which renders the clients send and how
// many requests they keep in flight (closed loop: each client sends its
// next request when the previous response is complete).
type workload struct {
	name    string
	hard    bool // degraded renders (dataset.RenderSample hard=true)
	clients int
}

// workloads are the benchmark's traffic mixes; README.md says why each
// exists and which layers it stresses.
var workloads = []workload{
	// Clean renders route easy: serve decode/encode, router and the
	// batch-1 classifier; the autoencoder never runs.
	{name: "easy-serial", hard: false, clients: 1},
	// Degraded renders, about two thirds converted at batch 1: the
	// paper's hard-image latency.
	{name: "hard-serial", hard: true, clients: 1},
	// Degraded renders with 32 requests in flight: batching, queueing and
	// serve competing with the workers for the cores.
	{name: "hard-crowd", hard: true, clients: 32},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// poolSize is the number of distinct images a workload cycles through.
// It is large enough that the route mix of a pool varies little between
// seeds, and small enough that the bodies (about 6 KB each) stay a minor
// part of the heap.
const poolSize = 4096

// sample is one request the benchmark can send: the rendered image and
// its JSON /classify body.
type sample struct {
	pixels []float32
	body   []byte
}

func newSample(px []float32) (sample, error) {
	body, err := json.Marshal(serve.ClassifyRequest{Pixels: px})
	if err != nil {
		return sample{}, fmt.Errorf("encoding a /classify body: %w", err)
	}
	return sample{pixels: px, body: body}, nil
}

// family is the dataset the served pipeline is built for.
const family = dataset.MNIST

// makePool renders n images from seed, classes round-robin, and encodes
// each as a /classify JSON body. The same seed yields the same bytes.
func makePool(seed uint64, hard bool, n int) ([]sample, error) {
	r := rng.New(seed)
	pool := make([]sample, n)
	for i := range pool {
		var err error
		pool[i], err = newSample(dataset.RenderSample(family, i%dataset.NumClasses, hard, r))
		if err != nil {
			return nil, err
		}
	}
	return pool, nil
}

// makeProbes renders one image that routes easy and one that routes hard,
// the requests setup waits on. They depend on the seed only, so setup
// does the same work on every workload.
func makeProbes(seed uint64) ([]sample, error) {
	r := rng.New(seed ^ 0x9e3779b97f4a7c15)
	var probes []sample
	for _, want := range []engine.RouteName{engine.RouteEasy, engine.RouteHard} {
		found := false
		for try := 0; try < 1000 && !found; try++ {
			px := dataset.RenderSample(family, try%dataset.NumClasses, want == engine.RouteHard, r)
			if got, _ := engine.RouteOf(px, engine.DefaultHardnessThreshold); got != want {
				continue
			}
			s, err := newSample(px)
			if err != nil {
				return nil, err
			}
			probes = append(probes, s)
			found = true
		}
		if !found {
			return nil, fmt.Errorf("no render routes %s", want)
		}
	}
	return probes, nil
}

// zeroPixelFrac is the share of exactly-zero pixels in the pool; the
// batch-1 dense kernel skips them.
func zeroPixelFrac(pool []sample) float64 {
	zeros, total := 0, 0
	for _, s := range pool {
		for _, v := range s.pixels {
			if v == 0 {
				zeros++
			}
		}
		total += len(s.pixels)
	}
	if total == 0 {
		return 0
	}
	return float64(zeros) / float64(total)
}

// clientStart is the pool index client c of n starts from; each client
// then walks the pool in order, so a seed fixes every client's stream.
func clientStart(c, n, poolLen int) int { return c * poolLen / n }
