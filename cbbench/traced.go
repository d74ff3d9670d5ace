package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"cbnet/internal/core"
	"cbnet/internal/dataset"
	"cbnet/internal/engine"
	"cbnet/internal/generalize"
	"cbnet/internal/tensor"
	"cbnet/internal/trace"
)

// Plan steps whose per-layer metrics the benchmark reports, in execution
// order: the autoencoder's and the classifier's fused steps.
var (
	aeSteps  = []string{"ae_fc1+ae_relu1", "ae_fc2+ae_relu2", "ae_fc3", "ae_fc4+ae_out"}
	clsSteps = []string{"conv1+relu1", "pool1", "bconv+brelu", "bpool", "bfc"}
)

// listedStep maps a compiled step name to the listed step it is reported
// under: the listed name itself, or the listed name a fused step begins
// with ("conv1+relu1+pool1" reports as "conv1+relu1"). Other names are
// returned unchanged.
func listedStep(step string, listed []string) string {
	for _, s := range listed {
		if step == s || strings.HasPrefix(step, s+"+") {
			return s
		}
	}
	return step
}

// Span names. Spans come from the benchmark's own calls into each layer.
const (
	spanServe     = "serve.ServeHTTP"
	spanWall      = "serve.engine_wall" // derived: serve's clock around Engine.Submit
	spanSubmit    = "engine.Submit"
	spanQueue     = "engine.queue_wait" // derived: Result.QueueWait
	spanInfer     = "engine.infer"      // derived: Result.Infer
	spanBatch     = "replay.batch"
	spanConvert   = "core.Convert"
	spanLogits    = "core.Logits"
	spanAEStep    = "nn.ae."
	spanClsStep   = "nn.cls."
	spanHardness  = "generalize.HardnessScore"
	spanGEMMPeak  = "tensor.GEMM.peak"
	spanGEMMFC1   = "tensor.GEMM.ae_fc1"
	spanGEMMConv1 = "tensor.GEMM.conv1"
)

// perLayerNames lists every per-layer metric in a fixed order.
func perLayerNames() []string {
	names := []string{
		"serve.self_us",
		"engine.submit_us", "engine.queue_wait_us", "engine.infer_us", "engine.self_us",
		"engine.batch_size.easy", "engine.batch_size.hard", "engine.hard_share",
		"generalize.hardness_us",
		"core.convert_us_per_img", "core.logits_us_per_img",
	}
	for _, s := range aeSteps {
		names = append(names, "nn.ae."+stepMetricName(s)+".us_per_img", "nn.ae."+stepMetricName(s)+".gflops")
	}
	for _, s := range clsSteps {
		names = append(names, "nn.cls."+stepMetricName(s)+".us_per_img", "nn.cls."+stepMetricName(s)+".gflops")
	}
	return append(names, "tensor.peak_gflops", "tensor.gemm.ae_fc1.gflops", "tensor.gemm.conv1.gflops")
}

// perLayerUnit returns the unit of a per-layer metric.
func perLayerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, ".us_per_img"), strings.HasSuffix(name, "_us_per_img"):
		return "us/img"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "gflops"):
		return "GFLOP/s"
	case strings.HasPrefix(name, "engine.batch_size."):
		return "img/batch"
	case name == "engine.hard_share":
		return "frac"
	}
	return ""
}

// spanLog collects spans in memory and issues their IDs.
type spanLog struct {
	spans []span
	next  uint64
}

func (l *spanLog) add(s span) uint64 {
	l.next++
	s.ID = l.next
	l.spans = append(l.spans, s)
	return s.ID
}

// addDerived records a child whose duration the program reported,
// placed at the end of its parent (after any later siblings already
// placed there, given by tail).
func (l *spanLog) addDerived(parent span, parentID uint64, name string, dur, tail int64) {
	end := parent.End - tail
	l.add(span{Parent: parentID, Req: parent.Req, Name: name, Start: end - dur, End: end, Derived: true})
}

// tracedServe turns the window's ServeHTTP records into spans, each with the
// derived child serve reports as wallLatencyMs, and returns the
// per-request serve self times in ns.
func tracedServe(l *spanLog, ph *phase) []float64 {
	var self []float64
	for _, r := range ph.records() {
		if r.verdict != verdictOK && r.verdict != verdictTie {
			continue
		}
		s := span{Req: r.reqID, Name: spanServe, Start: r.start, End: r.start + r.dur}
		id := l.add(s)
		l.addDerived(s, id, spanWall, r.wallNs, 0)
		child := l.spans[len(l.spans)-1]
		self = append(self, float64(selfTime(s, []span{child})))
	}
	return self
}

// submitTimes are the submit pass's per-request medians, in ns.
type submitTimes struct{ submit, queue, infer, self float64 }

// tracedSubmit turns the submit pass's Engine.Submit records into spans
// with the derived queue-wait and infer children, and returns their
// medians.
func tracedSubmit(l *spanLog, ph *phase) submitTimes {
	var sub, q, inf, self []float64
	for _, r := range ph.records() {
		if r.verdict != verdictOK && r.verdict != verdictTie {
			continue
		}
		s := span{Req: r.reqID, Name: spanSubmit, Start: r.start, End: r.start + r.dur}
		id := l.add(s)
		l.addDerived(s, id, spanInfer, r.inferNs, 0)
		l.addDerived(s, id, spanQueue, r.queueNs, r.inferNs)
		kids := l.spans[len(l.spans)-2:]
		sub = append(sub, float64(r.dur))
		q = append(q, float64(r.queueNs))
		inf = append(inf, float64(r.inferNs))
		self = append(self, float64(selfTime(s, kids)))
	}
	return submitTimes{median(sub), median(q), median(inf), median(self)}
}

// batchPlan is the list of (route, batch size) pairs the replay runs.
type batchPlan struct {
	route engine.RouteName
	size  int
}

// maxReplay bounds the replayed batches per route; longer lists are
// thinned evenly, keeping their size mix.
const maxReplay = 400

// observedBatches rebuilds the batches the engine formed from the batch
// size each response reports: a batch of b images yields b responses
// that each say b.
func observedBatches(recs []*record) []batchPlan {
	counts := map[engine.RouteName]map[int]int{}
	for _, r := range recs {
		if r.verdict != verdictOK && r.verdict != verdictTie || r.batch <= 0 {
			continue
		}
		rt := engine.RouteName(r.route)
		if counts[rt] == nil {
			counts[rt] = map[int]int{}
		}
		counts[rt][int(r.batch)]++
	}
	var out []batchPlan
	for _, rt := range []engine.RouteName{engine.RouteEasy, engine.RouteHard} {
		var sizes []int
		for b := range counts[rt] {
			sizes = append(sizes, b)
		}
		sort.Ints(sizes)
		var list []batchPlan
		for _, b := range sizes {
			n := max(1, (counts[rt][b]+b/2)/b)
			for i := 0; i < n; i++ {
				list = append(list, batchPlan{rt, b})
			}
		}
		step := (len(list) + maxReplay - 1) / max(1, maxReplay)
		for i := 0; i < len(list); i += max(1, step) {
			out = append(out, list[i])
		}
	}
	return out
}

// replayTimes are the replay's per-layer results.
type replayTimes struct {
	convertUsPerImg, logitsUsPerImg float64
	stepUsPerImg, stepGFLOPS        map[string]float64 // keyed by span name
	overhead                        *traceOverhead
}

// traceOverhead compares the replay's batches run through plans with step
// tracing on and through plans with it off, alternately on the same
// inputs. Plan step tracing is the only tracing the benchmark switches on
// inside the program.
type traceOverhead struct {
	TracedUsPerImg   float64 `json:"tracedUsPerImg"`
	UntracedUsPerImg float64 `json:"untracedUsPerImg"`
}

// Frac returns the traced time over the untraced time, minus one.
func (o *traceOverhead) Frac() float64 {
	if o.UntracedUsPerImg == 0 {
		return 0
	}
	return o.TracedUsPerImg/o.UntracedUsPerImg - 1
}

// replay runs the observed batches one by one, on one goroutine, through
// a traced Pipeline.Plans(32) set, with spans around PlanSet.Convert and
// PlanSet.Logits and the plan's own per-step spans as their children.
// Before each traced batch it runs the same batch through an untraced
// set, to measure the tracing overhead.
func replay(l *spanLog, pipe *core.Pipeline, pool []sample, refs []reference, plan []batchPlan) (replayTimes, error) {
	ps, err := pipe.Plans(32)
	if err != nil {
		return replayTimes{}, fmt.Errorf("compiling replay plans: %w", err)
	}
	plain, err := pipe.Plans(32)
	if err != nil {
		return replayTimes{}, fmt.Errorf("compiling replay plans: %w", err)
	}
	rec := trace.NewRecorder(64)
	ps.EnableTracing(rec, nil)
	byRoute := map[engine.RouteName][]int{}
	for i, r := range refs {
		byRoute[r.route] = append(byRoute[r.route], i)
	}
	var convNs, convImg, logNs, logImg, plainNs int64
	stepNs, stepImg, stepFLOPs := map[string]int64{}, map[string]int64{}, map[string]int64{}
	x := tensor.New(32, dataset.Pixels)
	next := map[engine.RouteName]int{}
	for bi, bp := range plan {
		idxs := byRoute[bp.route]
		if len(idxs) == 0 {
			continue
		}
		xb := &tensor.Tensor{Shape: []int{bp.size, dataset.Pixels}, Data: x.Data[:bp.size*dataset.Pixels]}
		for r := 0; r < bp.size; r++ {
			copy(xb.Data[r*dataset.Pixels:], pool[idxs[next[bp.route]%len(idxs)]].pixels)
			next[bp.route]++
		}
		t0 := trace.Now()
		if bp.route == engine.RouteHard {
			plain.Logits(plain.Convert(xb))
		} else {
			plain.Logits(xb)
		}
		plainNs += trace.Now() - t0
		batchID := uint64(bi + 1)
		ps.SetTraceID(batchID)
		root := span{Name: spanBatch, Start: trace.Now()}
		rootID := l.add(root)
		in := xb
		// steps records the plan spans emitted since mark under parent.
		steps := func(parentID uint64, prefix string, listed []string, mark int64) {
			for _, s := range rec.Snapshot() {
				if s.ID != batchID || s.Start < mark {
					continue
				}
				l.add(span{Parent: parentID, Name: prefix + s.Name.String(), Start: s.Start, End: s.Start + s.Dur})
				name := prefix + listedStep(s.Name.String(), listed)
				stepNs[name] += s.Dur
				stepImg[name] += int64(s.Batch)
				stepFLOPs[name] += s.FLOPs
			}
		}
		if bp.route == engine.RouteHard {
			t0 := trace.Now()
			in = ps.Convert(xb)
			t1 := trace.Now()
			id := l.add(span{Parent: rootID, Name: spanConvert, Start: t0, End: t1})
			steps(id, spanAEStep, aeSteps, t0)
			convNs += t1 - t0
			convImg += int64(bp.size)
		}
		t0 = trace.Now()
		ps.Logits(in)
		t1 := trace.Now()
		id := l.add(span{Parent: rootID, Name: spanLogits, Start: t0, End: t1})
		steps(id, spanClsStep, clsSteps, t0)
		logNs += t1 - t0
		logImg += int64(bp.size)
		l.spans[rootID-1].End = trace.Now()
	}
	out := replayTimes{
		convertUsPerImg: perImgUs(convNs, convImg),
		logitsUsPerImg:  perImgUs(logNs, logImg),
		stepUsPerImg:    map[string]float64{},
		stepGFLOPS:      map[string]float64{},
		overhead: &traceOverhead{
			TracedUsPerImg:   perImgUs(convNs+logNs, logImg),
			UntracedUsPerImg: perImgUs(plainNs, logImg),
		},
	}
	for name, ns := range stepNs {
		out.stepUsPerImg[name] = perImgUs(ns, stepImg[name])
		if ns > 0 {
			out.stepGFLOPS[name] = float64(stepFLOPs[name]) / float64(ns)
		}
	}
	return out, nil
}

func perImgUs(ns, imgs int64) float64 {
	if imgs == 0 {
		return 0
	}
	return float64(ns) / 1e3 / float64(imgs)
}

// hardnessUs times generalize.HardnessScore on every pool image, twice
// over, and returns the median in µs.
func hardnessUs(l *spanLog, pool []sample) float64 {
	var ds []float64
	for pass := 0; pass < 2; pass++ {
		for _, s := range pool {
			t0 := trace.Now()
			generalize.HardnessScore(s.pixels)
			t1 := trace.Now()
			l.add(span{Name: spanHardness, Start: t0, End: t1})
			ds = append(ds, float64(t1-t0)/1e3)
		}
	}
	return median(ds)
}

// gemmGFLOPS times tensor.GEMM at m×k×n until at least minGEMMTime has
// passed (and at least 5 calls) and returns the median rate. A is filled
// from image pixels so the batch-1 kernel sees real zero pixels.
func gemmGFLOPS(l *spanLog, name string, m, k, n int, pool []sample) float64 {
	a, b, c := make([]float32, m*k), make([]float32, k*n), make([]float32, m*n)
	fill(a, pool)
	for i := range b {
		b[i] = float32(i%17)/17 - 0.5
	}
	var rates []float64
	start := time.Now()
	for len(rates) < 5 || time.Since(start) < minGEMMTime {
		t0 := trace.Now()
		tensor.GEMM(a, b, c, m, k, n, 1, 0)
		t1 := trace.Now()
		l.add(span{Name: name, Start: t0, End: t1})
		rates = append(rates, 2*float64(m)*float64(k)*float64(n)/float64(t1-t0))
	}
	return median(rates)
}

// minGEMMTime is how long each GEMM shape is timed.
const minGEMMTime = 150 * time.Millisecond

// fill copies pool pixels into dst, cycling through the images.
func fill(dst []float32, pool []sample) {
	for off, i := 0, 0; off < len(dst); i++ {
		off += copy(dst[off:], pool[i%len(pool)].pixels)
	}
}

// meanBatch returns a route's mean batch size over a stats window.
func meanBatch(before, after engine.Snapshot, route engine.RouteName) float64 {
	imgs, batches := routeDelta(before, after, route)
	if batches == 0 {
		return 0
	}
	return float64(imgs) / float64(batches)
}

// routeDelta returns the images and batches a route served between two
// stats snapshots.
func routeDelta(before, after engine.Snapshot, route engine.RouteName) (imgs, batches int64) {
	for _, r := range after.Routes {
		if r.Route == string(route) {
			imgs, batches = r.Images, r.Batches
		}
	}
	for _, r := range before.Routes {
		if r.Route == string(route) {
			imgs -= r.Images
			batches -= r.Batches
		}
	}
	return imgs, batches
}

// gemmShapes returns the GEMM shapes read against the plan steps: the
// autoencoder's first layer at the mean hard batch, and conv1's im2col
// product at the mean easy batch (at least one image each).
func gemmShapes(hardBatch, easyBatch float64) (fc1, conv1 [3]int) {
	hb := max(1, int(hardBatch+0.5))
	eb := max(1, int(easyBatch+0.5))
	return [3]int{hb, dataset.Pixels, dataset.Pixels}, [3]int{3, 25, dataset.Pixels * eb}
}
