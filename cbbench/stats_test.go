package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"cbnet/internal/nn"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{100000, 99}, // p99.9 would qualify, but the metric asks for p99
		{1000, 99},   // exactly 10 beyond
		{999, 95},    // 9 beyond p99
		{200, 95},
		{100, 90},
		{20, 50},
		{5, 50}, // too few for any tail: the median
	} {
		got := tailPercentile(tc.n, 99)
		if got != tc.want {
			t.Errorf("tailPercentile(%d, 99) = %v, want %v", tc.n, got, tc.want)
		}
		if tc.n >= 20 {
			if beyond := tc.n - (rankIndex(tc.n, got) + 1); beyond < minBeyond {
				t.Errorf("n=%d: p%v leaves %d beyond, want >= %d", tc.n, got, beyond, minBeyond)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 99: 99, 100: 100, 1: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestSelfTimeSubtractsCoveredPart(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	for _, tc := range []struct {
		name string
		kids []span
		want int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 50, End: 60}}, 80},
		{"overlapping counted once", []span{{Start: 10, End: 20}, {Start: 15, End: 30}}, 80},
		{"clipped to parent", []span{{Start: -50, End: 10}, {Start: 90, End: 120}}, 80},
		{"nested child inside child", []span{{Start: 10, End: 60}, {Start: 20, End: 30}}, 50},
		{"outside parent", []span{{Start: 200, End: 300}}, 100},
	} {
		if got := selfTime(parent, tc.kids); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// The derived queue-wait and infer children of an Engine.Submit span
// leave submit - wait - infer as the engine's self time.
func TestDerivedChildrenGiveSubmitSelf(t *testing.T) {
	var l spanLog
	ph := &phase{clients: []*client{{recs: []record{{
		status: 200, start: 1000, dur: 1000, queueNs: 200, inferNs: 300, verdict: verdictOK,
	}}}}}
	st := tracedSubmit(&l, ph)
	if st.self != 500 || st.submit != 1000 || st.queue != 200 || st.infer != 300 {
		t.Fatalf("tracedSubmit = %+v, want submit 1000 queue 200 infer 300 self 500", st)
	}
	if len(l.spans) != 3 || l.spans[1].Parent != l.spans[0].ID || l.spans[2].Parent != l.spans[0].ID {
		t.Fatalf("spans = %+v, want a Submit span and two children", l.spans)
	}
}

// metricName is the pattern every reported metric and workload name must
// match: a letter or digit, then at most 63 letters, digits, '_', '.' or
// '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func validName(name string) bool { return metricName.MatchString(name) }

// checkNames verifies that every name is valid and used once.
func checkNames(names []string) error {
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if !validName(n) {
			return fmt.Errorf("invalid metric name %q", n)
		}
		if seen[n] {
			return fmt.Errorf("duplicate metric name %q", n)
		}
		seen[n] = true
	}
	return nil
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	var e2eNames []string
	for _, m := range endToEnd {
		e2eNames = append(e2eNames, m.name)
	}
	names := append(append([]string(nil), e2eNames...), perLayerNames()...)
	if err := checkNames(names); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "_x", "a+b", "a b", string(make([]byte, 65))} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	if err := checkNames([]string{"a", "a"}); err == nil {
		t.Error("checkNames accepted a duplicate")
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark reports %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range spec.EndToEnd {
		if d.Name != endToEnd[i].name || d.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, benchmark reports %s %s", i, d.Name, d.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	pl := perLayerNames()
	if len(spec.PerLayer) != len(pl) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark reports %d", len(spec.PerLayer), len(pl))
	}
	for i, d := range spec.PerLayer {
		if d.Name != pl[i] || d.Unit != perLayerUnit(pl[i]) {
			t.Errorf("per_layer[%d] = %s %s, benchmark reports %s %s", i, d.Name, d.Unit, pl[i], perLayerUnit(pl[i]))
		}
	}
}

// Every step the compiler emits for the served networks must report
// under a listed step, or its time would be missing from the metrics.
func TestStepNamesMatchCompiledPlans(t *testing.T) {
	pipe := buildPipeline()
	ae, err := pipe.AE.CompilePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := nn.Compile(pipe.Classifier, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		steps, listed []string
	}{{ae.StepNames(), aeSteps}, {cls.StepNames(), clsSteps}} {
		for _, s := range tc.steps {
			if got := listedStep(s, tc.listed); !slices.Contains(tc.listed, got) {
				t.Errorf("compiled step %q reports under no listed step of %v", s, tc.listed)
			}
		}
	}
	if got := listedStep("conv1+relu1+pool1", clsSteps); got != "conv1+relu1" {
		t.Errorf("fused step reports as %q, want conv1+relu1", got)
	}
	if got := listedStep("conv1x", clsSteps); got != "conv1x" {
		t.Errorf("unlisted step reports as %q", got)
	}
	if got := stepMetricName("ae_fc1+ae_relu1"); got != "ae_fc1_ae_relu1" {
		t.Errorf("stepMetricName = %q", got)
	}
}

func TestArgmaxTie(t *testing.T) {
	if c, tie := argmaxTie([]float32{0.1, 0.7, 0.2}); c != 1 || tie {
		t.Errorf("argmaxTie clear = %d %v", c, tie)
	}
	if c, tie := argmaxTie([]float32{0.5, 0.1, 0.5 + 1e-5}); c != 2 || !tie {
		t.Errorf("argmaxTie near = %d %v", c, tie)
	}
	if c, tie := argmaxTie([]float32{0.9, 0.05, 0.05}); c != 0 || tie {
		t.Errorf("argmaxTie first = %d %v", c, tie)
	}
}

func TestObservedBatchesRebuildsBatches(t *testing.T) {
	var recs []*record
	add := func(route string, batch, n int) {
		for i := 0; i < n; i++ {
			recs = append(recs, &record{route: route, batch: int32(batch), status: 200, verdict: verdictOK})
		}
	}
	add("hard", 4, 8)  // two batches of 4
	add("easy", 1, 3)  // three singletons
	add("hard", 12, 6) // half a batch seen: still one batch
	recs = append(recs, &record{route: "hard", batch: 4, status: 500, verdict: verdictError})
	got := observedBatches(recs)
	want := []batchPlan{{"easy", 1}, {"easy", 1}, {"easy", 1}, {"hard", 4}, {"hard", 4}, {"hard", 12}}
	if len(got) != len(want) {
		t.Fatalf("observedBatches = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("batch %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTrimmedMeanDropsEnds(t *testing.T) {
	xs := []float64{100, 1, 2, 3, 4, 5, 6, 7, 8, -50}
	if got := trimmedMean(xs, 0.1); got != 4.5 {
		t.Errorf("trimmedMean(10%%) = %v, want 4.5", got)
	}
	if got := trimmedMean(xs[1:9], 0.1); got != 4.5 { // 8 values: nothing dropped
		t.Errorf("trimmedMean of 8 = %v, want 4.5", got)
	}
	if got := trimmedMean(nil, 0.1); got != 0 {
		t.Errorf("trimmedMean(nil) = %v, want 0", got)
	}
}

func TestSummarizeAveragesOverBursts(t *testing.T) {
	sec := int64(time.Second)
	gap := 50 * int64(time.Millisecond)
	ph := &phase{bursts: []burst{
		{from: tick{t: 0}, to: tick{t: sec, cpu: 10 * time.Millisecond, alloc: 1024 * 10}},
		{
			from: tick{t: sec + gap, cpu: 10 * time.Millisecond, alloc: 1024 * 10},
			to:   tick{t: 2*sec + gap, cpu: 30 * time.Millisecond, alloc: 1024 * 30},
		},
	}}
	var recs []record
	// Burst 0: 10 requests of 1 ms. Burst 1: 10 of 3 ms, one failed.
	for i := 0; i < 10; i++ {
		recs = append(recs, record{start: int64(i) * sec / 20, dur: 1e6, status: 200, verdict: verdictOK, energyMJ: 1})
		v := verdictOK
		if i == 9 {
			v = verdictClass
		}
		recs = append(recs, record{start: sec + gap + int64(i)*sec/20, dur: 3e6, status: 200, verdict: v, energyMJ: 3})
	}
	ph.clients = []*client{{recs: recs}}
	e := summarize(ph)
	if e.lat.Bursts != 2 || e.lat.Samples != 20 {
		t.Fatalf("bursts %d samples %d, want 2 and 20", e.lat.Bursts, e.lat.Samples)
	}
	if e.throughput != 9.5 { // mean of 10/s and 9/s
		t.Errorf("throughput = %v, want 9.5", e.throughput)
	}
	if e.cpuMs != 1.5 { // mean of 10ms/10 and 20ms/10
		t.Errorf("cpu ms/req = %v, want 1.5", e.cpuMs)
	}
	if e.allocKB != 1.5 { // mean of 10KiB/10 and 20KiB/10
		t.Errorf("alloc KiB/req = %v, want 1.5", e.allocKB)
	}
	if math.Abs(e.success-19.0/20) > 1e-12 {
		t.Errorf("success = %v, want 19/20", e.success)
	}
	if e.energyMJ != 2 { // (10·1 + 10·3) / 20
		t.Errorf("energy = %v, want 2", e.energyMJ)
	}
	// Burst 1's failed request sorts as +Inf, so its p50 stays 3 ms.
	if e.lat.P50Ms != 2 {
		t.Errorf("p50 = %v, want mean(1, 3) = 2", e.lat.P50Ms)
	}
}
