package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"cbnet/internal/core"
	"cbnet/internal/dataset"
	"cbnet/internal/engine"
	"cbnet/internal/serve"
	"cbnet/internal/tensor"
)

// verdict is the correctness check's judgement of one response.
type verdict uint8

const (
	verdictOK    verdict = iota
	verdictTie           // class differs from a reference within parity tolerance of a tie
	verdictError         // non-200, Submit error or undecodable body
	verdictRoute         // route differs from engine.RouteOf
	verdictClass         // class differs from the Forward reference
)

// parityTol is the repository's plan-vs-Forward parity tolerance per
// logit under production kernel dispatch. A reference whose top two
// logits are within 2·parityTol can flip under it, so a class mismatch
// there is a near-tie, not a failure.
const parityTol = 1e-5

// reference is what a correct server answers for one sample.
type reference struct {
	route engine.RouteName
	class int
	tie   bool
}

// refBatch bounds the reference forward pass's batch, and so its memory.
const refBatch = 64

// references computes the expected answer for every sample: the route
// engine.RouteOf picks at the default threshold, and the argmax of the
// layer-by-layer nn.Sequential.Forward pass (autoencoder, then classifier,
// on the hard route).
func references(pipe *core.Pipeline, samples []sample) []reference {
	refs := make([]reference, len(samples))
	byRoute := map[engine.RouteName][]int{}
	for i, s := range samples {
		route, _ := engine.RouteOf(s.pixels, engine.DefaultHardnessThreshold)
		refs[i].route = route
		byRoute[route] = append(byRoute[route], i)
	}
	for route, idxs := range byRoute {
		for lo := 0; lo < len(idxs); lo += refBatch {
			hi := min(lo+refBatch, len(idxs))
			x := tensor.New(hi-lo, dataset.Pixels)
			for r, i := range idxs[lo:hi] {
				copy(x.Data[r*dataset.Pixels:], samples[i].pixels)
			}
			if route == engine.RouteHard {
				x = pipe.AE.Net.Forward(x, false)
			}
			logits := pipe.Classifier.Forward(x, false)
			w := logits.Shape[1]
			for r, i := range idxs[lo:hi] {
				refs[i].class, refs[i].tie = argmaxTie(logits.Data[r*w : (r+1)*w])
			}
		}
	}
	return refs
}

// argmaxTie returns the index of the largest value and whether the
// runner-up is within 2·parityTol of it.
func argmaxTie(row []float32) (int, bool) {
	best, second := 0, math.Inf(-1)
	for j := 1; j < len(row); j++ {
		if row[j] > row[best] {
			second = float64(row[best])
			best = j
		} else if float64(row[j]) > second {
			second = float64(row[j])
		}
	}
	return best, float64(row[best])-second <= 2*parityTol
}

// sameWeights reports whether two pipelines hold bit-identical
// parameters, so a freshly built reference stands for the served one.
func sameWeights(a, b *core.Pipeline) bool {
	pa := append(a.AE.Net.Params(), a.Classifier.Params()...)
	pb := append(b.AE.Net.Params(), b.Classifier.Params()...)
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		da, db := pa[i].Value.Data, pb[i].Value.Data
		if len(da) != len(db) {
			return false
		}
		for j := range da {
			if math.Float32bits(da[j]) != math.Float32bits(db[j]) {
				return false
			}
		}
	}
	return true
}

// phaseCount is the correctness tally of one phase.
type phaseCount struct {
	Phase     string `json:"phase"`
	Sent      int    `json:"sent"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
	NearTies  int    `json:"nearTies"`
}

// check decodes every HTTP response of ph, fills the records' response
// fields, and judges each record against refs, indexed like the samples
// the phase sent.
func check(ph *phase, refs []reference) phaseCount {
	pc := phaseCount{Phase: ph.name}
	for _, c := range ph.clients {
		for i := range c.recs {
			r := &c.recs[i]
			if r.bodyLen > 0 && r.status == http.StatusOK {
				var resp serve.ClassifyResponse
				if err := json.Unmarshal(c.bodyOf(r), &resp); err != nil {
					r.status = -1
				} else {
					r.reqID = resp.RequestID
					r.class = int32(resp.Class)
					r.route = resp.Route
					r.batch = int32(resp.BatchSize)
					r.wallNs = int64(resp.WallLatencyMS * 1e6)
					r.queueNs = int64(resp.QueueWaitMS * 1e6)
					r.energyMJ = resp.EnergyEstimateMJ
				}
			}
			r.verdict = judge(r, refs[r.idx])
			pc.Sent++
			switch r.verdict {
			case verdictOK:
				pc.Succeeded++
			case verdictTie:
				pc.Succeeded++
				pc.NearTies++
			default:
				pc.Failed++
			}
		}
	}
	return pc
}

func judge(r *record, ref reference) verdict {
	switch {
	case r.status != http.StatusOK:
		return verdictError
	case r.route != string(ref.route):
		return verdictRoute
	case int(r.class) != ref.class && ref.tie:
		return verdictTie
	case int(r.class) != ref.class:
		return verdictClass
	}
	return verdictOK
}

func (pc phaseCount) String() string {
	return fmt.Sprintf("%-8s sent %6d  succeeded %6d  failed %d  near-ties %d",
		pc.Phase, pc.Sent, pc.Succeeded, pc.Failed, pc.NearTies)
}
