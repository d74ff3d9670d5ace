package main

import (
	"bytes"
	"context"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"cbnet/internal/engine"
	"cbnet/internal/serve"
	"cbnet/internal/trace"
)

// record is one request as the client saw it. Fields after bodyLen are
// filled by the correctness check (HTTP phases) or from engine.Result
// (Submit phases).
type record struct {
	idx      int32 // index into the phase's samples
	status   int32 // HTTP status; -1 for a Submit error
	start    int64 // trace clock, ns
	dur      int64 // ns, call to end of response body
	bodyOff  int32 // response bytes in the client's arena
	bodyLen  int32
	reqID    uint64
	class    int32
	route    string
	batch    int32
	wallNs   int64 // serve's own clock around Engine.Submit
	queueNs  int64
	inferNs  int64
	energyMJ float64
	verdict  verdict
}

// bodyReader is a resettable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// respWriter is a reusable in-memory http.ResponseWriter.
type respWriter struct {
	h      http.Header
	status int
	buf    bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.h }

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *respWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.buf.Write(b)
}

var classifyURL = &url.URL{Path: "/classify"}

// client is one closed-loop sender. A client is used by one goroutine.
type client struct {
	next  int
	req   http.Request
	w     respWriter
	body  bodyReader
	hdr   http.Header
	recs  []record
	arena []byte
}

func newClient() *client {
	return &client{
		w:   respWriter{h: make(http.Header)},
		hdr: http.Header{"Content-Type": {"application/json"}},
	}
}

// classify sends one JSON body through ServeHTTP and records the status,
// the time from the call to the end of the response body, and the
// response bytes.
func (c *client) classify(srv *serve.Server, body []byte, idx int) {
	c.body.Reset(body)
	// The request is rebuilt in place, so the client allocates nothing
	// per request; ServeHTTP sets fields on it (the matched pattern).
	c.req = http.Request{
		Method:        http.MethodPost,
		URL:           classifyURL,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        c.hdr,
		Body:          &c.body,
		ContentLength: int64(len(body)),
		Host:          "cbbench",
		RequestURI:    "/classify",
	}
	clear(c.w.h)
	c.w.status = 0
	c.w.buf.Reset()
	t0 := trace.Now()
	srv.ServeHTTP(&c.w, &c.req)
	dur := trace.Now() - t0
	off := len(c.arena)
	c.arena = append(c.arena, c.w.buf.Bytes()...)
	c.recs = append(c.recs, record{
		idx: int32(idx), status: int32(c.w.status), start: t0, dur: dur,
		bodyOff: int32(off), bodyLen: int32(len(c.arena) - off),
	})
}

// submit sends one image straight to Server.Engine.Submit and records
// the span around the call with the engine's own timings.
func (c *client) submit(srv *serve.Server, px []float32, idx int) {
	t0 := trace.Now()
	res, err := srv.Engine.Submit(context.Background(), engine.Request{Pixels: px})
	dur := trace.Now() - t0
	rec := record{idx: int32(idx), status: http.StatusOK, start: t0, dur: dur}
	if err != nil {
		rec.status = -1
	} else {
		rec.reqID = res.RequestID
		rec.class = int32(res.Class)
		rec.route = res.Route
		rec.batch = int32(res.BatchSize)
		rec.queueNs = int64(res.QueueWait)
		rec.inferNs = int64(res.Infer)
	}
	c.recs = append(c.recs, rec)
}

// phase is one stretch of load: its clients' records and its bursts.
type phase struct {
	name    string
	clients []*client
	bursts  []burst
	// perBurst is the most requests one client has completed in a burst,
	// and maxBody the longest response body; reserve sizes the storage
	// for the next burst from them.
	perBurst, maxBody int
}

// tick is a reading of the process counters.
type tick struct {
	t     int64 // trace clock, ns
	cpu   time.Duration
	alloc uint64
}

// burst is one stretch of uninterrupted load, with the counters read at
// its start and after its last response.
type burst struct{ from, to tick }

// A measured window is sent as bursts of burstDur separated by
// burstPause, in which every client is idle. The end-to-end metrics are
// averaged over bursts (see burstTrim). On a 2-vCPU virtual machine, a serial client's
// requests were seen to settle into a few distinct speeds, up to 1.8×
// apart, each holding for seconds to tens of seconds; with one
// continuous window a run's figures depended on which speed it caught.
// Letting the process go idle between bursts resamples that state every
// burst, which cut the run-to-run spread of the serial p50 several-fold.
const (
	burstDur   = time.Second
	burstPause = 20 * time.Millisecond
)

func readTick() tick {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return tick{t: trace.Now(), cpu: cpuTime(), alloc: ms.TotalAlloc}
}

func newPhase(name string, clients int) *phase {
	ph := &phase{name: name}
	for i := 0; i < clients; i++ {
		ph.clients = append(ph.clients, newClient())
	}
	return ph
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sendFunc issues one request for sample idx from client c.
type sendFunc func(c *client, idx int)

// runLoad drives len(ph.clients) closed-loop clients, each walking the
// samples in order from its own start, in bursts that add up to d. Before
// every burst but the first it calls between, when not nil, and then
// idles for burstPause. It returns when every client's last request has
// completed.
func runLoad(ph *phase, samples []sample, d time.Duration, send sendFunc, between func()) {
	n := len(ph.clients)
	for i, c := range ph.clients {
		c.next = clientStart(i, n, len(samples))
	}
	for left := d; left > 0; left -= burstDur {
		if len(ph.bursts) > 0 {
			if between != nil {
				between()
			}
			time.Sleep(burstPause)
		}
		ph.reserve()
		b := burst{from: readTick()}
		deadline := time.Now().Add(min(left, burstDur))
		var wg sync.WaitGroup
		for _, c := range ph.clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					send(c, c.next)
					c.next = (c.next + 1) % len(samples)
				}
			}(c)
		}
		wg.Wait()
		b.to = readTick()
		ph.bursts = append(ph.bursts, b)
		ph.observe()
	}
}

// reserve grows every client's record and body storage, outside the
// burst, so that no append in the next burst has to reallocate. The
// harness's own storage then stays out of the burst's TotalAlloc and CPU
// readings, which measure the server alone.
func (ph *phase) reserve() {
	need := ph.perBurst*3/2 + 64
	for _, c := range ph.clients {
		c.recs = slices.Grow(c.recs, need)
		c.arena = slices.Grow(c.arena, need*ph.maxBody)
	}
}

// observe updates perBurst and maxBody after a burst.
func (ph *phase) observe() {
	b := len(ph.bursts)
	for _, c := range ph.clients {
		n := 0
		for i := len(c.recs) - 1; i >= 0 && c.recs[i].start >= ph.bursts[b-1].from.t; i-- {
			n++
			ph.maxBody = max(ph.maxBody, int(c.recs[i].bodyLen))
		}
		ph.perBurst = max(ph.perBurst, n)
	}
}

// httpSend returns a sendFunc that posts the sample's body to srv.
func httpSend(srv *serve.Server, samples []sample) sendFunc {
	return func(c *client, idx int) { c.classify(srv, samples[idx].body, idx) }
}

// submitSend returns a sendFunc that submits the sample's pixels to
// srv.Engine directly.
func submitSend(srv *serve.Server, samples []sample) sendFunc {
	return func(c *client, idx int) { c.submit(srv, samples[idx].pixels, idx) }
}

// records returns every client's records in client order.
func (ph *phase) records() []*record {
	var out []*record
	for _, c := range ph.clients {
		for i := range c.recs {
			out = append(out, &c.recs[i])
		}
	}
	return out
}

// bodyOf returns the response bytes of a record made by client c.
func (c *client) bodyOf(r *record) []byte {
	return c.arena[r.bodyOff : r.bodyOff+r.bodyLen]
}
