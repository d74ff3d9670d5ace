package main

import (
	"math"
	"sort"
	"strings"
)

// metric is one named measurement in the benchmark's result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stepMetricName maps a fused plan step label such as "ae_fc1+ae_relu1"
// to the name fragment used in metric names ("ae_fc1_ae_relu1").
func stepMetricName(step string) string { return strings.ReplaceAll(step, "+", "_") }

// tailPercentiles are the percentiles a tail latency may be read at,
// highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile
// for it to mean anything.
const minBeyond = 10

// rankIndex returns the nearest-rank index of percentile p in n sorted
// samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tailPercentile returns the highest percentile, no higher than want,
// that leaves at least minBeyond of n samples beyond it. With too few
// samples for any of them it falls back to the median.
func tailPercentile(n int, want float64) float64 {
	for _, p := range tailPercentiles {
		if p > want {
			continue
		}
		if n-(rankIndex(n, p)+1) >= minBeyond {
			return p
		}
	}
	return 50
}

// percentile reads percentile p (nearest rank) from sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), p)]
}

// median returns the middle value of xs, or the mean of the two middle
// values when their count is even (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[m]
}

// trimmedMean returns the mean of xs without its lowest and highest
// frac of values (0 when empty).
func trimmedMean(xs []float64, frac float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(frac * float64(len(s)))
	s = s[k : len(s)-k]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// span is one traced interval on the trace clock (ns). Parent is the ID
// of the span that caused it (0 for a root). Derived spans carry a
// duration reported by the program rather than timed by the benchmark;
// they are placed at the end of their parent, so only their length is
// meaningful.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Req     uint64 `json:"req"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Derived bool   `json:"derived,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTime returns parent's duration minus the part of it covered by any
// of children; overlapping children are counted once and the parts of a
// child outside parent not at all.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), parent.Start
	for _, v := range ivs {
		if v.a < end {
			v.a = end
		}
		if v.b > v.a {
			covered += v.b - v.a
			end = v.b
		}
	}
	return parent.dur() - covered
}
