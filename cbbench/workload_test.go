package main

import (
	"bytes"
	"testing"

	"cbnet/internal/engine"
)

// stream concatenates the bodies each of clients closed-loop clients
// sends in its first n requests, in the order runLoad sends them.
func stream(pool []sample, clients, n int) []byte {
	var b bytes.Buffer
	for c := 0; c < clients; c++ {
		next := clientStart(c, clients, len(pool))
		for i := 0; i < n; i++ {
			b.Write(pool[next].body)
			next = (next + 1) % len(pool)
		}
	}
	return b.Bytes()
}

func TestSeedFixesRequestStream(t *testing.T) {
	for _, w := range workloads {
		a, err := makePool(7, w.hard, 40)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makePool(7, w.hard, 40)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stream(a, w.clients, 50), stream(b, w.clients, 50)) {
			t.Errorf("%s: seed 7 gave two different request streams", w.name)
		}
		c, err := makePool(8, w.hard, 40)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(stream(a, w.clients, 50), stream(c, w.clients, 50)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w.name)
		}
	}
}

func TestProbesCoverBothRoutes(t *testing.T) {
	probes, err := makeProbes(3)
	if err != nil {
		t.Fatal(err)
	}
	want := []engine.RouteName{engine.RouteEasy, engine.RouteHard}
	if len(probes) != len(want) {
		t.Fatalf("%d probes, want %d", len(probes), len(want))
	}
	for i, p := range probes {
		if got, _ := engine.RouteOf(p.pixels, engine.DefaultHardnessThreshold); got != want[i] {
			t.Errorf("probe %d routes %s, want %s", i, got, want[i])
		}
	}
	again, _ := makeProbes(3)
	for i := range probes {
		if !bytes.Equal(probes[i].body, again[i].body) {
			t.Errorf("probe %d differs between calls with one seed", i)
		}
	}
}

func TestWorkloadNames(t *testing.T) {
	for _, w := range workloads {
		if !validName(w.name) {
			t.Errorf("invalid workload name %q", w.name)
		}
		if got, err := workloadByName(w.name); err != nil || got != w {
			t.Errorf("workloadByName(%q) = %v, %v", w.name, got, err)
		}
	}
	if _, err := workloadByName("nope"); err == nil {
		t.Error("workloadByName accepted an unknown name")
	}
}
