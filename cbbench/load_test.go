package main

import (
	"testing"
	"time"
)

// A short crowd run against the real server passes the correctness check
// in every phase, its records land inside a burst, and a spare server
// build is timed in the pause between bursts.
func TestShortRunIsCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the server for about three seconds")
	}
	pool, err := makePool(5, true, 64)
	if err != nil {
		t.Fatal(err)
	}
	probes, err := makeProbes(5)
	if err != nil {
		t.Fatal(err)
	}
	setupPh := newPhase("setup", 1)
	srv, first := setupRound(setupPh.clients[0], probes)
	defer srv.Close()
	setupTimes := []float64{first}
	serve := newPhase("http", 4)
	runLoad(serve, pool, 2*time.Second, httpSend(srv, pool), spareSetup(setupPh.clients[0], probes, &setupTimes))
	if len(setupTimes) != 2 || setupTimes[1] <= 0 {
		t.Fatalf("setup times %v, want two positive", setupTimes)
	}
	sub := newPhase("submit", 4)
	runLoad(sub, pool, time.Second, submitSend(srv, pool), nil)

	ref := buildPipeline()
	if !sameWeights(ref, srv.Pipeline) {
		t.Fatal("a second build of the pipeline has different weights")
	}
	refs := references(ref, pool)
	for _, pc := range []phaseCount{check(setupPh, references(ref, probes)), check(serve, refs), check(sub, refs)} {
		if pc.Sent == 0 || pc.Failed != 0 {
			t.Errorf("phase %s", pc)
		}
	}
	for _, ph := range []*phase{serve, sub} {
		for _, r := range ph.records() {
			in := false
			for _, b := range ph.bursts {
				in = in || r.start >= b.from.t && r.start+r.dur <= b.to.t
			}
			if !in {
				t.Fatalf("%s: request [%d, %d] outside every burst", ph.name, r.start, r.start+r.dur)
			}
		}
	}
	// The storage reserved before the second burst held all of it.
	if serve.perBurst == 0 || serve.maxBody == 0 {
		t.Fatalf("perBurst %d maxBody %d after two bursts", serve.perBurst, serve.maxBody)
	}
	if e := summarize(serve); e.throughput <= 0 || e.success != 1 || e.energyMJ <= 0 {
		t.Errorf("summary %+v", e)
	}
}
