package main

import (
	"log/slog"
	"os"
	"runtime"
	"time"

	"cbnet/internal/core"
	"cbnet/internal/device"
	"cbnet/internal/engine"
	"cbnet/internal/models"
	"cbnet/internal/rng"
	"cbnet/internal/serve"
)

// buildServer assembles the server the way `cbnet-serve -demo` does with
// its default flags: untrained MNIST networks from rng.New(1), the
// Raspberry Pi 4 profile, resilience on, degradation off, no default
// deadline, MaxBatch 32, MaxWait 2ms and automatic worker counts.
func buildServer() *serve.Server {
	pipe := buildPipeline()
	cfg := engine.Config{
		MaxBatch:          32,
		MaxWait:           2 * time.Millisecond,
		QueueDepth:        256,
		HardnessThreshold: engine.DefaultHardnessThreshold,
		Resilience:        engine.ResilienceConfig{Enabled: true},
	}
	opts := serve.Options{
		Logger:          slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo})),
		SLOLatencyP99:   50 * time.Millisecond,
		SLOAvailability: 0.999,
	}
	return serve.NewWithOptions(pipe, engine.New(pipe, cfg), device.RaspberryPi4(), family, opts)
}

// buildPipeline builds the untrained demo pipeline. Construction is
// deterministic, so two calls yield identical weights.
func buildPipeline() *core.Pipeline {
	r := rng.New(1)
	branchy := models.NewBranchyLeNet(r, models.DefaultThreshold(family))
	ae := models.NewTableIAE(family, r)
	return &core.Pipeline{AE: ae, Classifier: models.ExtractLightweight(branchy)}
}

// setupRound builds a server and times it from pipeline construction to
// the response to each probe (one easy, one hard), sent by c so the
// correctness check sees them.
func setupRound(c *client, probes []sample) (*serve.Server, float64) {
	t0 := time.Now()
	srv := buildServer()
	for j, p := range probes {
		c.classify(srv, p.body, j)
	}
	return srv, time.Since(t0).Seconds()
}

// spareSetup times one more build in a pause between bursts, then closes
// that server and collects its garbage before the next burst starts.
// Spreading the builds over the window lets setup_s sample the same host
// conditions as the load figures, not only those of the run's first
// moment.
func spareSetup(c *client, probes []sample, times *[]float64) func() {
	return func() {
		runtime.GC()
		srv, s := setupRound(c, probes)
		srv.Close()
		*times = append(*times, s)
		runtime.GC()
	}
}
