// Command cbbench is the repository's end-to-end /classify benchmark. It
// builds the server the way `cbnet-serve -demo` does, drives its
// ServeHTTP in process from closed-loop clients (no sockets), checks
// every response, and prints one JSON result line.
//
// Run it from the repository root through its wrapper, which builds it
// first:
//
//	bash cbbench/run.sh --workload hard-crowd --seed 1 --seconds 40 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a separate traced run. README.md
// describes the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cbnet/internal/engine"
	"cbnet/internal/serve"
	"cbnet/internal/tensor"
)

// endToEnd lists the end-to-end metrics and their units, in order.
var endToEnd = []struct{ name, unit string }{
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"success_frac", "frac"},
	{"cpu_ms_per_req", "ms"},
	{"model_energy_mj_per_img", "mJ"},
	{"alloc_kb_per_req", "KiB"},
	{"heap_mb", "MiB"},
	{"setup_s", "s"},
}

// warmup is how long load runs before the measured window.
const warmup = time.Second

func main() {
	var (
		wname   = flag.String("workload", "", "workload name: easy-serial, hard-serial or hard-crowd")
		seed    = flag.Uint64("seed", 1, "seed the workload's images are rendered from")
		seconds = flag.Int("seconds", 10, "length of the measured window in seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		out     = flag.String("out", filepath.Join(".bench_build", "cbbench"), "directory for run records and spans")
	)
	flag.Parse()
	w, err := workloadByName(*wname)
	if err == nil && (*seconds < 1 || *traced < 0 || *traced > 1) {
		err = errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cbbench:", err)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cbbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cbbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is everything one run measured, written next to its spans
// so drift between runs can be traced to the host or the workload.
type runRecord struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Traced     bool               `json:"traced"`
	Host       host               `json:"host"`
	Properties properties         `json:"properties"`
	Phases     []phaseCount       `json:"phases"`
	Latency    latencySummary     `json:"latency"`
	SetupS     []float64          `json:"setupSeconds"`
	EndToEnd   map[string]float64 `json:"endToEnd"`
	PerLayer   map[string]float64 `json:"perLayer,omitempty"`
	// Traced runs: what switching the plans' step tracing on costs the
	// replay, and the part of latency_p50_ms the four per-layer medians
	// leave unexplained.
	TraceOverhead *traceOverhead `json:"traceOverhead,omitempty"`
	RemainderMs   *float64       `json:"unexplainedP50RemainderMs,omitempty"`
}

// host identifies what ran the benchmark.
type host struct {
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GEMMKernel  string `json:"gemmKernel"`
	GEMMThreads int    `json:"gemmThreads"`
	GoVersion   string `json:"goVersion"`
}

// properties are the measured traits of the workload's inputs.
type properties struct {
	Seed          uint64  `json:"seed"`
	Clients       int     `json:"clients"`
	PoolSize      int     `json:"poolSize"`
	HardShare     float64 `json:"hardShare"`
	ZeroPixelFrac float64 `json:"zeroPixelFrac"`
	BatchEasy     float64 `json:"meanBatchEasy"`
	BatchHard     float64 `json:"meanBatchHard"`
}

// latencySummary states which percentile the tail metric reads and on
// how many samples.
type latencySummary struct {
	Samples        int     `json:"samples"`
	Bursts         int     `json:"bursts"`
	P50Ms          float64 `json:"p50Ms"`
	TailPercentile float64 `json:"tailPercentile"`
	TailMs         float64 `json:"tailMs"`
	// BurstRps is each burst's throughput, to tell a steady window
	// from a disturbed one.
	BurstRps  []float64 `json:"burstRps"`
	BurstP50  []float64 `json:"burstP50Ms"`
	BurstTail []float64 `json:"burstTailMs"`
	BurstCPU  []float64 `json:"burstCpuMsPerReq"`
}

// e2e holds the end-to-end figures of one HTTP phase.
type e2e struct {
	lat        latencySummary
	throughput float64
	success    float64
	cpuMs      float64
	energyMJ   float64
	allocKB    float64
}

// burstLoad gathers the requests that completed in one burst.
type burstLoad struct {
	lats      []float64 // ms; +Inf for a failed request
	ok        int
	completed int // HTTP 200
}

// burstTrim is the share of bursts dropped at each end before the
// per-burst figures are averaged: 0.25 gives the interquartile mean. On
// a host whose speed switches between a few levels for seconds at a
// time, a median over bursts snaps to whichever level held most of the
// run, so runs that caught the levels in near-equal shares read one level
// or the other; a mean moves in proportion to the shares instead. The
// trim keeps bursts that caught a stall, whose tail is inflated
// several-fold, from moving it.
const burstTrim = 0.25

// summarize computes a checked HTTP phase's end-to-end figures. Rates,
// latency percentiles and per-request costs are computed per burst and
// averaged over the window's bursts, trimmed by burstTrim; a failed
// request counts as missing every latency limit.
func summarize(ph *phase) e2e {
	bursts := ph.bursts
	loads := make([]burstLoad, len(bursts))
	var e e2e
	var ok, completed, n int
	var energy float64
	for _, r := range ph.records() {
		end := r.start + r.dur
		i := sort.Search(len(bursts), func(i int) bool { return bursts[i].to.t >= end })
		s := &loads[min(i, len(loads)-1)]
		n++
		if r.status == 200 {
			completed++
			s.completed++
			energy += r.energyMJ
		}
		if r.verdict == verdictOK || r.verdict == verdictTie {
			ok++
			s.ok++
			s.lats = append(s.lats, float64(r.dur)/1e6)
		} else {
			s.lats = append(s.lats, math.Inf(1))
		}
	}
	if n > 0 {
		e.success = float64(ok) / float64(n)
	}
	if completed > 0 {
		e.energyMJ = energy / float64(completed)
	}
	var tput, p50, tail, cpu, alloc []float64
	e.lat = latencySummary{Samples: n, TailPercentile: 100}
	for i, s := range loads {
		if len(s.lats) == 0 {
			continue
		}
		b := bursts[i]
		sort.Float64s(s.lats)
		p := tailPercentile(len(s.lats), 99)
		e.lat.TailPercentile = min(e.lat.TailPercentile, p)
		e.lat.Bursts++
		tput = append(tput, float64(s.ok)/time.Duration(b.to.t-b.from.t).Seconds())
		p50 = append(p50, finite(percentile(s.lats, 50)))
		tail = append(tail, finite(percentile(s.lats, p)))
		alloc = append(alloc, float64(b.to.alloc-b.from.alloc)/1024/float64(len(s.lats)))
		if s.completed > 0 {
			cpu = append(cpu, float64(b.to.cpu-b.from.cpu)/1e6/float64(s.completed))
		}
	}
	e.lat.P50Ms, e.lat.TailMs = finite(trimmedMean(p50, burstTrim)), finite(trimmedMean(tail, burstTrim))
	e.lat.BurstRps, e.lat.BurstP50, e.lat.BurstTail, e.lat.BurstCPU = tput, p50, tail, cpu
	e.throughput = trimmedMean(tput, burstTrim)
	e.cpuMs, e.allocKB = trimmedMean(cpu, burstTrim), trimmedMean(alloc, burstTrim)
	return e
}

// finite maps the +Inf latency of failed requests to the largest float,
// which still reads as missing every limit but can be written as JSON.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	return x
}

func run(w workload, seed uint64, window time.Duration, traced bool, outDir string) (result, error) {
	pool, err := makePool(seed, w.hard, poolSize)
	if err != nil {
		return result{}, err
	}
	probes, err := makeProbes(seed)
	if err != nil {
		return result{}, err
	}
	setupPh := newPhase("setup", 1)
	runtime.GC()
	srv, first := setupRound(setupPh.clients[0], probes)
	defer srv.Close()

	rec := runRecord{Workload: w.name, Seed: seed, Traced: traced, SetupS: []float64{first}}
	rec.Host = host{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GEMMKernel:  tensor.GEMMKernelName(),
		GEMMThreads: tensor.GEMMThreads(),
		GoVersion:   runtime.Version(),
	}
	spans, perLayer, timed, err := measure(srv, w, pool, probes, setupPh, window, traced, &rec)
	if err != nil {
		return result{}, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", w.name, seed, boolInt(traced)))
	if err := writeSpans(base, spans); err != nil {
		return result{}, err
	}
	pool, spans = nil, nil
	// Two cycles: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so the reading does not depend on
	// what the last requests left pooled.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapInuse) / (1 << 20)

	res := result{Metrics: map[string]metric{}}
	for _, pc := range rec.Phases {
		res.Attempted += pc.Sent
		res.Failed += pc.Failed
	}
	res.Correct = res.Failed == 0
	rec.EndToEnd = map[string]float64{
		"throughput_rps":          timed.throughput,
		"latency_p50_ms":          timed.lat.P50Ms,
		"latency_p99_ms":          timed.lat.TailMs,
		"success_frac":            timed.success,
		"cpu_ms_per_req":          timed.cpuMs,
		"model_energy_mj_per_img": timed.energyMJ,
		"alloc_kb_per_req":        timed.allocKB,
		"heap_mb":                 heapMB,
		"setup_s":                 median(rec.SetupS),
	}
	rec.Latency = timed.lat
	if traced {
		rec.PerLayer = perLayer
		for _, name := range perLayerNames() {
			res.Metrics[name] = metric{Value: perLayer[name], Unit: perLayerUnit(name)}
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: rec.EndToEnd[m.name], Unit: m.unit}
		}
	}
	report(os.Stderr, &rec)
	if err := writeRecord(base, &rec); err != nil {
		return result{}, err
	}
	return res, nil
}

// measure runs the warm-up and the measured window, timing a spare
// server build in each pause of the window, then, when traced is set,
// the Engine.Submit pass and the replay, and the correctness check on
// every phase. It owns the
// phases' records, so they are garbage once it returns.
func measure(srv *serve.Server, w workload, pool, probes []sample, setupPh *phase, window time.Duration, traced bool, rec *runRecord) ([]span, map[string]float64, e2e, error) {
	warm := newPhase("warm-up", w.clients)
	runLoad(warm, pool, warmup, httpSend(srv, pool), nil)
	runtime.GC()
	before := srv.Engine.Stats()
	timed := newPhase("timed", w.clients)
	timed.perBurst, timed.maxBody = warm.perBurst, warm.maxBody
	runLoad(timed, pool, window, httpSend(srv, pool), spareSetup(setupPh.clients[0], probes, &rec.SetupS))
	after := srv.Engine.Stats()

	var submit *phase
	if traced {
		runtime.GC()
		submit = newPhase("submit", w.clients)
		runLoad(submit, pool, window/2, submitSend(srv, pool), nil)
	}

	// The correctness check runs after the load, against a freshly built
	// pipeline whose weights must equal the served one's.
	ref := buildPipeline()
	if !sameWeights(ref, srv.Pipeline) {
		return nil, nil, e2e{}, errors.New("reference pipeline weights differ from the served pipeline")
	}
	refs := references(ref, pool)
	rec.Phases = []phaseCount{check(setupPh, references(ref, probes)), check(warm, refs), check(timed, refs)}
	if traced {
		rec.Phases = append(rec.Phases, check(submit, refs))
	}
	timedE2E := summarize(timed)

	imgsE, _ := routeDelta(before, after, engine.RouteEasy)
	imgsH, _ := routeDelta(before, after, engine.RouteHard)
	rec.Properties = properties{
		Seed:          rec.Seed,
		Clients:       w.clients,
		PoolSize:      len(pool),
		ZeroPixelFrac: zeroPixelFrac(pool),
		BatchEasy:     meanBatch(before, after, engine.RouteEasy),
		BatchHard:     meanBatch(before, after, engine.RouteHard),
	}
	if imgsE+imgsH > 0 {
		rec.Properties.HardShare = float64(imgsH) / float64(imgsE+imgsH)
	}
	if !traced {
		return nil, nil, timedE2E, nil
	}

	// The serve spans come from the untraced window's own records: the
	// benchmark times ServeHTTP from outside, so building them afterwards
	// costs the measured requests nothing.
	var l spanLog
	serveSelf := tracedServe(&l, timed)
	sub := tracedSubmit(&l, submit)
	rp, err := replay(&l, srv.Pipeline, pool, refs, observedBatches(timed.records()))
	if err != nil {
		return nil, nil, e2e{}, err
	}
	fc1, conv1 := gemmShapes(rec.Properties.BatchHard, rec.Properties.BatchEasy)
	pl := map[string]float64{
		"serve.self_us":             median(serveSelf) / 1e3,
		"engine.submit_us":          sub.submit / 1e3,
		"engine.queue_wait_us":      sub.queue / 1e3,
		"engine.infer_us":           sub.infer / 1e3,
		"engine.self_us":            sub.self / 1e3,
		"engine.batch_size.easy":    rec.Properties.BatchEasy,
		"engine.batch_size.hard":    rec.Properties.BatchHard,
		"engine.hard_share":         rec.Properties.HardShare,
		"generalize.hardness_us":    hardnessUs(&l, pool),
		"core.convert_us_per_img":   rp.convertUsPerImg,
		"core.logits_us_per_img":    rp.logitsUsPerImg,
		"tensor.peak_gflops":        gemmGFLOPS(&l, spanGEMMPeak, 256, 256, 256, pool),
		"tensor.gemm.ae_fc1.gflops": gemmGFLOPS(&l, spanGEMMFC1, fc1[0], fc1[1], fc1[2], pool),
		"tensor.gemm.conv1.gflops":  gemmGFLOPS(&l, spanGEMMConv1, conv1[0], conv1[1], conv1[2], pool),
	}
	for _, st := range []struct {
		prefix string
		steps  []string
	}{{"nn.ae.", aeSteps}, {"nn.cls.", clsSteps}} {
		for _, s := range st.steps {
			pl[st.prefix+stepMetricName(s)+".us_per_img"] = rp.stepUsPerImg[st.prefix+s]
			pl[st.prefix+stepMetricName(s)+".gflops"] = rp.stepGFLOPS[st.prefix+s]
		}
	}
	rec.TraceOverhead = rp.overhead
	explained := pl["serve.self_us"] + pl["engine.self_us"] + pl["engine.queue_wait_us"] + pl["engine.infer_us"]
	rem := timedE2E.lat.P50Ms - explained/1e3
	rec.RemainderMs = &rem
	return l.spans, pl, timedE2E, nil
}

// report prints a run's record for a reader.
func report(f *os.File, rec *runRecord) {
	w := bufio.NewWriter(f)
	defer w.Flush()
	h, p := rec.Host, rec.Properties
	fmt.Fprintf(w, "cbbench %s seed %d traced=%v\n", rec.Workload, rec.Seed, rec.Traced)
	fmt.Fprintf(w, "host: nproc %d  GOMAXPROCS %d  kernel %s  gemm-threads %d  %s\n",
		h.NumCPU, h.GOMAXPROCS, h.GEMMKernel, h.GEMMThreads, h.GoVersion)
	fmt.Fprintf(w, "workload: clients %d  pool %d  hard share %.4f  zero pixels %.4f  mean batch easy %.2f hard %.2f\n",
		p.Clients, p.PoolSize, p.HardShare, p.ZeroPixelFrac, p.BatchEasy, p.BatchHard)
	for _, pc := range rec.Phases {
		fmt.Fprintln(w, "phase", pc)
	}
	fmt.Fprintf(w, "latency: %d samples in %d bursts of %v, trimmed mean of burst p50 %.4f ms, of burst p%g %.4f ms\n",
		rec.Latency.Samples, rec.Latency.Bursts, burstDur, rec.Latency.P50Ms, rec.Latency.TailPercentile, rec.Latency.TailMs)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-26s %12.5f %s\n", m.name, rec.EndToEnd[m.name], m.unit)
	}
	if rec.PerLayer != nil {
		for _, name := range perLayerNames() {
			fmt.Fprintf(w, "  %-40s %12.4f %s\n", name, rec.PerLayer[name], perLayerUnit(name))
		}
		fmt.Fprintf(w, "unexplained p50 remainder: %.4f ms (latency_p50_ms minus serve.self + engine.self + queue_wait + infer)\n", *rec.RemainderMs)
		o := rec.TraceOverhead
		fmt.Fprintf(w, "tracing overhead: replay %.2f us/img with plan tracing on, %.2f us/img off (%+.1f%%); serve and engine spans are built from the untraced requests afterwards and cost them nothing\n",
			o.TracedUsPerImg, o.UntracedUsPerImg, 100*o.Frac())
	}
}

// writeRecord writes the run record to base.json.
func writeRecord(base string, rec *runRecord) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding run record: %w", err)
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return fmt.Errorf("writing run record: %w", err)
	}
	return nil
}

// writeSpans creates base's directory and writes a traced run's spans to
// base.spans.jsonl, before the heap is read, so the span log is not
// counted in heap_mb.
func writeSpans(base string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", filepath.Dir(base), err)
	}
	if spans == nil {
		return nil
	}
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
