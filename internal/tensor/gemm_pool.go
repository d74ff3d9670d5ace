package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The blocked GEMM's worker pool: a persistent, lazily-started set of
// goroutines that one large GEMM fans its macro-kernel loop out to, so a
// single product can saturate the machine instead of one core. The unit of
// work is a task — one (A row block, B sliver chunk) cell of a (jc, pc)
// panel's tile grid — claimed from a shared atomic cursor, so fast workers
// steal load from slow ones instead of idling at a static split.
//
// Everything on the warm path is recycled: jobs come from a sync.Pool,
// workers own their packing buffers for life, and the completion barrier is
// an atomic countdown plus one reused buffered channel — zero steady-state
// heap allocations, matching the serial path's contract.
//
// Per-KC-block barrier: gemmBlocked submits one job per (jc, pc) panel and
// waits for it to drain before advancing pc, which preserves the write-back
// ordering the beta-accumulation and the final-block epilogue rely on.

// gemmThreadsVal is the requested intra-GEMM fan-out (goroutines per
// blocked GEMM, caller included). Default GOMAXPROCS.
var gemmThreadsVal atomic.Int64

func init() { gemmThreadsVal.Store(int64(runtime.GOMAXPROCS(0))) }

// SetGEMMThreads sets the process-wide intra-GEMM parallelism — how many
// goroutines (including the caller) one blocked GEMM may fan its macro
// kernel out to — and returns the previous setting. Values below 1 clamp
// to 1 (fully serial). Values above GOMAXPROCS are honored rather than
// clamped: benchmarks and race tests on constrained hosts deliberately
// oversubscribe to exercise the pool. The engine sizes this against its
// own worker count (workers × routes × gemm-threads ≤ GOMAXPROCS).
func SetGEMMThreads(n int) int {
	if n < 1 {
		n = 1
	}
	return int(gemmThreadsVal.Swap(int64(n)))
}

// GEMMThreads reports the current intra-GEMM fan-out setting.
func GEMMThreads() int { return int(gemmThreadsVal.Load()) }

// packCache remembers which A row block a worker's packing buffer holds, so
// consecutive tasks in the same block skip the repack. Job generations make
// stale entries self-invalidating.
type packCache struct {
	gen uint64
	ib  int
}

// gemmJob is one (jc, pc) panel's worth of parallel work: the panel
// geometry plus the scheduling state. Jobs are pooled; the done channel is
// allocated once per job object and reused across generations.
type gemmJob struct {
	gemmPanel

	// Task grid: tasks = mBlocks × nChunks cells; task t covers A row
	// block t/nChunks and B sliver chunk t%nChunks (sliversPerChunk
	// nr-wide slivers). Same-block tasks are index-adjacent so a worker
	// draining the cursor tends to reuse its packed A block.
	nChunks         int
	sliversPerChunk int
	tasks           int64

	gen     uint64       // generation, for packCache invalidation
	cursor  atomic.Int64 // next unclaimed task
	pending atomic.Int64 // unfinished tasks; the last finisher signals done
	refs    atomic.Int64 // holders (caller + queued handoffs); last drops to pool
	done    chan struct{}
}

var jobPool = sync.Pool{New: func() any { return &gemmJob{done: make(chan struct{}, 1)} }}

var jobGen atomic.Uint64

// runShare drains tasks from the job until the cursor is exhausted, packing
// A row blocks into wb as needed (skipped when cache already holds the
// block) and signaling the barrier after the final task completes.
func (j *gemmJob) runShare(wb *gemmBuf, cache *packCache) {
	for {
		t := j.cursor.Add(1) - 1
		if t >= j.tasks {
			return
		}
		ib := int(t) / j.nChunks
		ck := int(t) % j.nChunks
		ic := ib * blockMC
		mc := min(blockMC, j.m-ic)
		if cache.gen != j.gen || cache.ib != ib {
			ap := wb.ensureA(roundUp(mc, j.kern.mr) * j.kc)
			packA(j.a, j.ars, j.acs, ic, j.pc, mc, j.kc, j.kern.mr, ap)
			cache.gen, cache.ib = j.gen, ib
		}
		jr0 := ck * j.sliversPerChunk * j.kern.nr
		jr1 := min(j.nc, jr0+j.sliversPerChunk*j.kern.nr)
		j.sweep(wb, ic, mc, jr0, jr1)
		if j.pending.Add(-1) == 0 {
			j.done <- struct{}{}
		}
	}
}

// unref drops one hold on the job; the last holder scrubs the operand
// references and returns it to the pool.
func (j *gemmJob) unref() {
	if j.refs.Add(-1) == 0 {
		j.a, j.bp, j.c = nil, nil, nil
		j.ep = Epilogue{}
		jobPool.Put(j)
	}
}

// gemmPool is the process-wide worker set. Workers are started lazily on
// first parallel GEMM and live for the process; each owns its packing
// buffers, so steady-state jobs allocate nothing.
type gemmPool struct {
	jobs    chan *gemmJob
	mu      sync.Mutex
	started int32 // guarded by mu for writes; atomic reads on the fast path
}

// maxPoolWorkers bounds runaway SetGEMMThreads values; no realistic host
// exceeds it.
const maxPoolWorkers = 256

var thePool = &gemmPool{jobs: make(chan *gemmJob, 4*maxPoolWorkers)}

// ensure lazily grows the pool to at least n workers.
func (p *gemmPool) ensure(n int) {
	if n > maxPoolWorkers {
		n = maxPoolWorkers
	}
	if int(atomic.LoadInt32(&p.started)) >= n {
		return
	}
	p.mu.Lock()
	for int(p.started) < n {
		go p.worker()
		p.started++
	}
	p.mu.Unlock()
}

func (p *gemmPool) worker() {
	wb := new(gemmBuf)
	var cache packCache
	for j := range p.jobs {
		j.runShare(wb, &cache)
		j.unref()
	}
}

// runPanelParallel executes one packed (jc, pc) panel across the pool:
// helpers-1 handoffs are queued, the caller works its own share on db, and
// the per-KC barrier completes when every task has been written back. The
// caller returns only after the barrier, so the next depth block's
// beta-accumulation (and the final block's epilogue) never race a tile.
func runPanelParallel(pn *gemmPanel, db *gemmBuf, threads, mBlocks, nChunks, sliversPerChunk int) {
	tasks := mBlocks * nChunks
	j := jobPool.Get().(*gemmJob)
	j.gemmPanel = *pn
	j.nChunks = nChunks
	j.sliversPerChunk = sliversPerChunk
	j.tasks = int64(tasks)
	j.gen = jobGen.Add(1)
	j.cursor.Store(0)
	j.pending.Store(int64(tasks))
	helpers := threads - 1
	if helpers > tasks-1 {
		helpers = tasks - 1
	}
	if helpers > maxPoolWorkers {
		helpers = maxPoolWorkers
	}
	thePool.ensure(helpers)
	j.refs.Store(int64(helpers) + 1)
	for i := 0; i < helpers; i++ {
		thePool.jobs <- j
	}
	var cache packCache
	j.runShare(db, &cache)
	<-j.done
	j.unref()
	// Reclaim stale handoffs. When callers outpace the pool (few cores, or
	// a tight GEMM loop), the wakeups queued for an already-finished job sit
	// unconsumed and pin it out of the pool, forcing the next call to
	// allocate a fresh job. Drain exhausted jobs here — ours or anyone's, a
	// worker would no-op on them too — and requeue the first live one.
	for {
		select {
		case j2 := <-thePool.jobs:
			if j2.cursor.Load() >= j2.tasks {
				j2.unref()
				continue
			}
			thePool.jobs <- j2
		default:
		}
		break
	}
}

// gemmFanout decides how many goroutines (caller included) one packed panel
// is worth: the configured thread setting, capped by the task grid, with
// small panels kept serial — below the parallel threshold the barrier and
// handoff cost more than the cores can win back.
func gemmFanout(threads, flops, mBlocks, slivers int) int {
	if threads < 2 || flops < parallelThreshold {
		return 1
	}
	if grid := mBlocks * slivers; grid < threads {
		threads = grid
	}
	return threads
}
