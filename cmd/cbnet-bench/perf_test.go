package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"cbnet/internal/bench"
)

// TestRunPerfWritesJSON drives the perf mode with a narrow filter (one
// cheap kernel benchmark) and validates the emitted snapshot file.
func TestRunPerfWritesJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_test.json")
	if _, err := runPerf(out, "rowops/addrowvector"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Schema  string `json:"schema"`
		Results []struct {
			Name    string  `json:"name"`
			NsPerOp float64 `json:"nsPerOp"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Schema != "cbnet-bench-perf/v1" || len(snap.Results) != 1 || snap.Results[0].NsPerOp <= 0 {
		t.Fatalf("unexpected snapshot: %+v", snap)
	}
}

func TestRunPerfUnknownFilter(t *testing.T) {
	if _, err := runPerf(filepath.Join(t.TempDir(), "x.json"), "no-such-benchmark"); err == nil {
		t.Fatal("expected error for a filter matching nothing")
	}
}

// TestDiffPerf drives the CI perf gate end to end: a capture diffed against
// itself passes, and diffed against an artificially faster baseline fails.
func TestDiffPerf(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_base.json")
	snap, err := runPerf(out, "rowops/addrowvector")
	if err != nil {
		t.Fatal(err)
	}
	base, err := bench.ReadSnapshot(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffPerf(snap, base, out, 0.2); err != nil {
		t.Fatalf("self-diff must pass: %v", err)
	}
	// Shrink the baseline's ns/op so the fresh capture reads as a >20%
	// regression against it.
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, r := range doc["results"].([]any) {
		m := r.(map[string]any)
		m["nsPerOp"] = m["nsPerOp"].(float64) / 10
	}
	shrunk, _ := json.Marshal(doc)
	fastPath := filepath.Join(t.TempDir(), "BENCH_fast.json")
	if err := os.WriteFile(fastPath, shrunk, 0o644); err != nil {
		t.Fatal(err)
	}
	fastBase, err := bench.ReadSnapshot(fastPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffPerf(snap, fastBase, fastPath, 0.2); err == nil {
		t.Fatal("diff against a 10x faster baseline must fail")
	}
}

// TestDiffAgainstCommittedSnapshot diffs a fresh capture against a
// committed snapshot written by an older schema revision: it still carries
// the retired fmaKernel field and the pipeline/infer-scratch/batch16 row.
// The old file must load, the retired row must surface as missing from the
// capture, and a missing row is a warning, not a gate failure (the huge
// tolerance keeps this host's timings out of the verdict).
func TestDiffAgainstCommittedSnapshot(t *testing.T) {
	const committed = "../../BENCH_2026-08-08.json"
	base, err := bench.ReadSnapshot(committed)
	if err != nil {
		t.Fatalf("committed snapshot no longer loads: %v", err)
	}
	if base.GEMMKernel == "" {
		t.Fatal("committed snapshot lost its gemmKernel field")
	}
	snap, err := runPerf(filepath.Join(t.TempDir(), "BENCH_fresh.json"), "rowops/addrowvector")
	if err != nil {
		t.Fatal(err)
	}
	// The filtered capture misses most rows; of those, only the retired
	// row is gone from the registry itself.
	const retired = "pipeline/infer-scratch/batch16"
	var unregistered []string
	for _, name := range bench.MissingFromCurrent(base, snap) {
		if !slices.Contains(bench.Names(), name) {
			unregistered = append(unregistered, name)
		}
	}
	if !slices.Equal(unregistered, []string{retired}) {
		t.Fatalf("committed rows missing from the registry: %v, want [%s]", unregistered, retired)
	}
	if err := diffPerf(snap, base, committed, 1e9); err != nil {
		t.Fatalf("a retired row must only warn: %v", err)
	}
}
