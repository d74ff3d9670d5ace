package nn

import (
	"fmt"
	"strings"

	"cbnet/internal/tensor"
	"cbnet/internal/trace"
)

// The plan compiler: ahead-of-time inference compilation for Sequential
// networks. Compile runs shape inference once, drops inference-identity
// layers (Dropout, ActivityRegularizer), fuses activations into their
// producing GEMM's epilogue (Conv2D+ReLU, Dense+ReLU, Dense+Sigmoid,
// Dense+Softmax, …), and assigns every intermediate a fixed offset in one
// preplanned buffer. Plan.Execute is then a flat loop over precompiled
// steps — no interface dispatch, no type assertions, and zero steady-state
// heap allocations. Plans are the only inference path; Sequential.Forward
// is the training path and the reference every plan is tested against.
//
// Buffer planning is ping-pong liveness: only one intermediate is live
// between consecutive steps, so step i reads slot i%2−1 and writes slot
// i%2, and each slot is sized to the widest tensor it ever holds at the
// plan's batch capacity. Convolution steps additionally share one scratch
// region for their im2col column matrix and channel-major GEMM output,
// sized to the largest conv step. Everything lives in a single []float32
// owned by the plan.

// planOp discriminates the precompiled step kinds.
type planOp uint8

const (
	// opDense is a fused dense stage: y = act(xW + b), with an optional
	// row softmax applied in the same step.
	opDense planOp = iota
	// opConv is a fused convolution stage: batched im2col, one GEMM with
	// the per-channel bias and activation in its write-back epilogue, and
	// a pure regroup copy to sample-major layout.
	opConv
	// opPool is a max-pooling stage.
	opPool
	// opAct is a standalone elementwise activation or row softmax, used
	// only when an activation has no GEMM producer to fuse into.
	opAct
)

// planStep is one precompiled stage of a Plan. Steps reference their source
// layers' parameter tensors directly (read-only at inference), so a plan
// always serves the layers' current weights.
type planStep struct {
	op      planOp
	name    string             // fused label, e.g. "conv1+relu1"
	act     tensor.EpilogueAct // fused activation (opDense/opConv/opAct)
	softmax bool               // row softmax after the step body

	outW   int
	outOff int // output offset into Plan.buf (the step's ping-pong slot)

	dense *Dense
	conv  *Conv2D
	pool  *MaxPool2D

	// conv-only scratch offsets into Plan.buf.
	colOff, gemmOff int

	// Compile-time cost model, filled by annotateCosts: modelled
	// floating-point work and activation traffic per sample, plus the
	// per-execution parameter traffic that is independent of batch size.
	// Spans and the meter derive achieved GFLOPS and arithmetic intensity
	// from these (see StepInfo for the model's definition).
	flopsPerImg int64
	ioPerImg    int64
	fixedBytes  int64
}

// Plan is a compiled inference program for one Sequential at a fixed batch
// capacity. A Plan owns its intermediate buffer and is therefore
// single-goroutine: engine workers each compile their own. The layers' weights are shared and read-only.
type Plan struct {
	name     string
	batchCap int
	inW      int
	outW     int
	steps    []planStep
	buf      []float32
	pack     tensor.PackScratch // plan-owned GEMM packing panels
	outHdr   tensor.Tensor      // reusable view header returned by Execute

	// Tracing, attached by EnableTracing. All nil/empty by default, in
	// which case Execute pays one branch per step and nothing else. Like
	// the plan's buffers, the recorder and traceID belong to the plan's
	// single executing goroutine; the StepStats are shared, atomic.
	rec     *trace.Recorder
	stats   []*trace.StepStats // parallel to steps; nil entries allowed
	nameIDs []trace.NameID     // parallel to steps
	traceID uint64             // correlation ID stamped on emitted spans
}

// Compile builds the static execution plan of net for batches of up to
// batchCap rows. It fails on non-positive capacities, on layer types it has
// no step for, and on networks whose input
// width cannot be inferred (no shape-bearing layer).
func Compile(net *Sequential, batchCap int) (*Plan, error) {
	if net == nil {
		return nil, fmt.Errorf("nn: Compile of nil network")
	}
	if batchCap <= 0 {
		return nil, fmt.Errorf("nn: Compile %s: non-positive batch capacity %d", net.Name(), batchCap)
	}
	p := &Plan{name: net.Name(), batchCap: batchCap, inW: -1}
	width := -1

	// fuse tries to fold an activation into the preceding GEMM step's
	// epilogue; it fails when there is no preceding step or that step
	// already carries an activation.
	fuse := func(act tensor.EpilogueAct, softmax bool, name string) bool {
		if len(p.steps) == 0 {
			return false
		}
		st := &p.steps[len(p.steps)-1]
		if st.act != tensor.EpActNone || st.softmax {
			return false
		}
		switch {
		case st.op == opDense:
		case st.op == opConv && !softmax:
			// A conv's softmax spans each sample's full channel×spatial
			// row, which the channel-major epilogue cannot see; only
			// elementwise activations fuse into conv steps.
		default:
			return false
		}
		st.act = act
		st.softmax = softmax
		st.name += "+" + name
		return true
	}
	// standalone appends an unfused activation step.
	standalone := func(act tensor.EpilogueAct, softmax bool, name string) error {
		if width < 0 {
			return fmt.Errorf("nn: Compile %s: activation %s before any shape-bearing layer", net.Name(), name)
		}
		p.steps = append(p.steps, planStep{op: opAct, name: name, act: act, softmax: softmax, outW: width})
		return nil
	}
	shaped := func(name string, in int) error {
		if width < 0 {
			width = in
			p.inW = in
			return nil
		}
		if width != in {
			return fmt.Errorf("nn: Compile %s: %s wants input width %d, got %d", net.Name(), name, in, width)
		}
		return nil
	}

	for _, l := range net.Layers {
		switch l := l.(type) {
		case *Dropout, *ActivityRegularizer:
			// Identity at inference: elided.
		case *Dense:
			if err := shaped(l.Name(), l.In); err != nil {
				return nil, err
			}
			p.steps = append(p.steps, planStep{op: opDense, name: l.Name(), dense: l, outW: l.Out})
			width = l.Out
		case *Conv2D:
			if err := shaped(l.Name(), l.InSize()); err != nil {
				return nil, err
			}
			out, err := l.OutSize(l.InSize())
			if err != nil {
				return nil, fmt.Errorf("nn: Compile %s: %w", net.Name(), err)
			}
			p.steps = append(p.steps, planStep{op: opConv, name: l.Name(), conv: l, outW: out})
			width = out
		case *MaxPool2D:
			if err := shaped(l.Name(), l.InSize()); err != nil {
				return nil, err
			}
			out, err := l.OutSize(l.InSize())
			if err != nil {
				return nil, fmt.Errorf("nn: Compile %s: %w", net.Name(), err)
			}
			p.steps = append(p.steps, planStep{op: opPool, name: l.Name(), pool: l, outW: out})
			width = out
		case *ReLU:
			if !fuse(tensor.EpActReLU, false, l.Name()) {
				if err := standalone(tensor.EpActReLU, false, l.Name()); err != nil {
					return nil, err
				}
			}
		case *Sigmoid:
			if !fuse(tensor.EpActSigmoid, false, l.Name()) {
				if err := standalone(tensor.EpActSigmoid, false, l.Name()); err != nil {
					return nil, err
				}
			}
		case *Softmax:
			if !fuse(tensor.EpActNone, true, l.Name()) {
				if err := standalone(tensor.EpActNone, true, l.Name()); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("nn: Compile %s: no plan step for layer %s (%T)", net.Name(), l.Name(), l)
		}
	}
	if width < 0 {
		return nil, fmt.Errorf("nn: Compile %s: no shape-bearing layer to infer the input width from", net.Name())
	}
	p.outW = width
	p.planBuffer()
	p.annotateCosts()
	return p, nil
}

// actFLOPs is the modelled per-element cost of a fused activation.
func actFLOPs(act tensor.EpilogueAct) int64 {
	switch act {
	case tensor.EpActReLU:
		return 1
	case tensor.EpActSigmoid:
		return 4 // negate, exp, add, divide
	}
	return 0
}

// annotateCosts fills each step's compile-time FLOP/byte model. Shapes are
// fully known after shape inference, so the model costs nothing at run
// time; Execute scales the per-image figures by the live batch size.
//
// The byte model counts activation traffic per image (reads of the step's
// input, writes of its output, and for convolutions the im2col column
// matrix written then re-read and the channel-major GEMM output written
// then regrouped) plus the parameter bytes read once per execution. It is
// a traffic model, not a cache simulation: it is meant to rank steps by
// arithmetic intensity, exactly how the paper's §IV ledger attributes
// latency to stages.
func (p *Plan) annotateCosts() {
	const f32 = 4 // bytes per element
	for i := range p.steps {
		st := &p.steps[i]
		softmaxFLOPs := int64(0)
		if st.softmax {
			softmaxFLOPs = 5 * int64(st.outW) // max, sub, exp, sum, div
		}
		switch st.op {
		case opDense:
			d := st.dense
			st.flopsPerImg = 2*int64(d.In)*int64(d.Out) + // GEMM
				int64(d.Out) + // bias
				actFLOPs(st.act)*int64(d.Out) + softmaxFLOPs
			st.ioPerImg = f32 * int64(d.In+d.Out)
			st.fixedBytes = f32 * int64(d.In*d.Out+d.Out)
		case opConv:
			c := st.conv
			colRows, colCols := int64(c.Dims.ColRows()), int64(c.Dims.ColCols())
			outEls := int64(c.OutC) * colCols
			st.flopsPerImg = 2*colRows*colCols*int64(c.OutC) + // GEMM
				outEls + // bias
				actFLOPs(st.act)*outEls
			// input read + col written and re-read + GEMM out written,
			// re-read, and regrouped into the output slot.
			st.ioPerImg = f32 * (int64(c.InSize()) + 2*colRows*colCols + 3*outEls)
			st.fixedBytes = f32 * (int64(c.OutC)*colRows + int64(c.OutC))
		case opPool:
			pl := st.pool
			st.flopsPerImg = int64(st.outW) * int64(pl.Pool) * int64(pl.Pool) // window compares
			st.ioPerImg = f32 * int64(pl.InSize()+st.outW)
		case opAct:
			perEl := actFLOPs(st.act)
			if perEl == 0 && !st.softmax {
				perEl = 1 // pure copy step: count the move
			}
			st.flopsPerImg = perEl*int64(st.outW) + softmaxFLOPs
			st.ioPerImg = f32 * 2 * int64(st.outW)
		}
	}
}

// planBuffer assigns every step its fixed buffer offsets: two ping-pong
// slots for the inter-step activations plus one shared conv scratch region,
// all inside a single allocation.
func (p *Plan) planBuffer() {
	var slotW [2]int
	convScratch := 0
	for i := range p.steps {
		st := &p.steps[i]
		if st.outW > slotW[i%2] {
			slotW[i%2] = st.outW
		}
		if st.op == opConv {
			c := st.conv
			need := (c.Dims.ColRows() + c.OutC) * p.batchCap * c.Dims.ColCols()
			if need > convScratch {
				convScratch = need
			}
		}
	}
	slotOff := [2]int{0, p.batchCap * slotW[0]}
	convBase := p.batchCap * (slotW[0] + slotW[1])
	for i := range p.steps {
		st := &p.steps[i]
		st.outOff = slotOff[i%2]
		if st.op == opConv {
			st.colOff = convBase
			st.gemmOff = convBase + st.conv.Dims.ColRows()*p.batchCap*st.conv.Dims.ColCols()
		}
	}
	p.buf = make([]float32, convBase+convScratch)
	p.outHdr = tensor.Tensor{Shape: make([]int, 2)}
}

// Name returns the compiled network's label.
func (p *Plan) Name() string { return p.name }

// BatchCap returns the largest batch Execute accepts.
func (p *Plan) BatchCap() int { return p.batchCap }

// InWidth returns the per-sample input width.
func (p *Plan) InWidth() int { return p.inW }

// OutWidth returns the per-sample output width.
func (p *Plan) OutWidth() int { return p.outW }

// StepInfo describes one compiled step's static shape and cost model for
// introspection: the profiling table, the /metrics per-step series, and
// tests. FLOPsPerImage counts GEMM multiply-adds as 2 FLOPs plus bias and
// activation work; BytesPerImage counts the step's activation traffic
// (including conv im2col and regroup copies); FixedBytes is the parameter
// traffic paid once per execution regardless of batch size.
type StepInfo struct {
	Index         int
	Name          string
	Op            string // "dense", "conv", "pool", "act"
	OutWidth      int
	FLOPsPerImage int64
	BytesPerImage int64
	FixedBytes    int64
}

// Steps returns the compiled steps' static descriptions in execution order.
func (p *Plan) Steps() []StepInfo {
	ops := map[planOp]string{opDense: "dense", opConv: "conv", opPool: "pool", opAct: "act"}
	out := make([]StepInfo, len(p.steps))
	for i := range p.steps {
		st := &p.steps[i]
		out[i] = StepInfo{
			Index:         i,
			Name:          st.name,
			Op:            ops[st.op],
			OutWidth:      st.outW,
			FLOPsPerImage: st.flopsPerImg,
			BytesPerImage: st.ioPerImg,
			FixedBytes:    st.fixedBytes,
		}
	}
	return out
}

// EnableTracing attaches a span recorder and/or a cumulative meter to the
// plan. Either may be nil. The recorder must belong to the same single
// goroutine that calls Execute (engine workers own one each); meter series
// are shared and atomic, so plans compiled for the same network on
// different workers fold into one per-step series. Call before serving —
// attachment interns names and allocates; Execute afterwards does not.
func (p *Plan) EnableTracing(rec *trace.Recorder, m *trace.Meter) {
	p.EnableTracingScoped(rec, m, "")
}

// EnableTracingScoped is EnableTracing with a meter scope — typically the
// engine route ("easy"/"hard") the plan executes under — so the same
// network serving two routes yields two distinguishable per-step series.
// Each step also registers its operation class ("dense"/"conv"/...) with
// the meter, which the energy projector keys device rates on.
func (p *Plan) EnableTracingScoped(rec *trace.Recorder, m *trace.Meter, scope string) {
	p.rec = rec
	if p.nameIDs == nil {
		p.nameIDs = make([]trace.NameID, len(p.steps))
		for i := range p.steps {
			p.nameIDs[i] = trace.Intern(p.steps[i].name)
		}
	}
	if m != nil {
		ops := map[planOp]string{opDense: "dense", opConv: "conv", opPool: "pool", opAct: "act"}
		p.stats = make([]*trace.StepStats, len(p.steps))
		for i := range p.steps {
			st := &p.steps[i]
			p.stats[i] = m.ScopedStep(scope, ops[st.op], p.name, st.name, i, st.flopsPerImg, st.ioPerImg, st.fixedBytes)
		}
	}
}

// SetTraceID stamps subsequent Execute calls' spans with a correlation ID
// (the engine uses its batch ID). Single-goroutine, like Execute.
func (p *Plan) SetTraceID(id uint64) { p.traceID = id }

// StepNames returns the fused step labels in execution order, e.g.
// ["conv1+relu1" "pool1" "fc1+relu" "fc2+sm"], for introspection and tests.
func (p *Plan) StepNames() []string {
	names := make([]string, len(p.steps))
	for i := range p.steps {
		names[i] = p.steps[i].name
	}
	return names
}

// String summarizes the plan for logs.
func (p *Plan) String() string {
	return fmt.Sprintf("plan %s (cap %d, %d→%d): %s",
		p.name, p.batchCap, p.inW, p.outW, strings.Join(p.StepNames(), " | "))
}

// Execute runs the plan on x (n×inW, n ≤ BatchCap). When dst is nil the
// result is returned as a plan-owned view, valid only until the next
// Execute — copy out anything that must live longer. When dst is non-nil
// (n×outW, caller-owned) the final step writes straight into it and dst is
// returned. Once warm, Execute performs zero heap allocations in the serial
// regime; large GEMM steps additionally fan out across the tensor package's
// persistent worker pool when tensor.SetGEMMThreads allows (batch-row
// fan-out spawns goroutines, intra-GEMM fan-out recycles pool workers).
func (p *Plan) Execute(dst, x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 2 || x.Shape[1] != p.inW {
		panic(fmt.Sprintf("nn: plan %s: input shape %v, want (N, %d)", p.name, x.Shape, p.inW))
	}
	n := x.Shape[0]
	if n > p.batchCap {
		panic(fmt.Sprintf("nn: plan %s: batch %d exceeds compiled capacity %d", p.name, n, p.batchCap))
	}
	if dst != nil && (len(dst.Shape) != 2 || dst.Shape[0] != n || dst.Shape[1] != p.outW) {
		panic(fmt.Sprintf("nn: plan %s: dst shape %v, want (%d, %d)", p.name, dst.Shape, n, p.outW))
	}
	cur := x.Data[:n*p.inW]
	if len(p.steps) == 0 {
		if dst != nil {
			copy(dst.Data, cur)
			return dst
		}
		return p.view(n, cur)
	}
	last := len(p.steps) - 1
	traced := p.rec != nil || p.stats != nil
	var t0 int64
	for i := range p.steps {
		st := &p.steps[i]
		out := p.buf[st.outOff : st.outOff+n*st.outW]
		if i == last && dst != nil {
			out = dst.Data[:n*st.outW]
		}
		if traced {
			t0 = trace.Now()
		}
		switch st.op {
		case opDense:
			p.runDense(st, cur, out, n)
		case opConv:
			p.runConv(st, cur, out, n)
		case opPool:
			p.runPool(st, cur, out, n)
		case opAct:
			runAct(st, cur, out, n)
		}
		if traced {
			dur := trace.Now() - t0
			if p.stats != nil {
				p.stats[i].Observe(dur, n)
			}
			if p.rec != nil {
				p.rec.Emit(trace.Span{
					ID:    p.traceID,
					Kind:  trace.KindPlanStep,
					Name:  p.nameIDs[i],
					Step:  i,
					Batch: n,
					Start: t0,
					Dur:   dur,
					FLOPs: int64(n) * st.flopsPerImg,
					Bytes: int64(n)*st.ioPerImg + st.fixedBytes,
				})
			}
		}
		cur = out
	}
	if dst != nil {
		return dst
	}
	return p.view(n, cur)
}

// view returns the plan-owned output header over data.
func (p *Plan) view(n int, data []float32) *tensor.Tensor {
	p.outHdr.Shape[0] = n
	p.outHdr.Shape[1] = p.outW
	p.outHdr.Data = data
	return &p.outHdr
}

// runDense executes y = act(xW + b) with the bias and activation fused into
// the GEMM epilogue, plus the optional fused row softmax.
func (p *Plan) runDense(st *planStep, in, out []float32, n int) {
	d := st.dense
	tensor.GEMMEpilogue(in, d.W.Value.Data, out, n, d.In, d.Out,
		tensor.Epilogue{Act: st.act, ColBias: d.B.Value.Data}, &p.pack)
	if st.softmax {
		for i := 0; i < n; i++ {
			SoftmaxRow(out[i*d.Out : (i+1)*d.Out])
		}
	}
}

// runConv executes the batched convolution step: one im2col expansion of
// the whole batch, one GEMM whose epilogue applies the per-channel bias and
// activation in its write-back tail, and a pure regroup copy to
// sample-major layout.
func (p *Plan) runConv(st *planStep, in, out []float32, n int) {
	c := st.conv
	colRows, colCols := c.Dims.ColRows(), c.Dims.ColCols()
	batchCols := n * colCols

	col := p.buf[st.colOff : st.colOff+colRows*batchCols]
	if !tensor.ShouldParallel(n, colRows*colCols) {
		c.im2colRange(in, col, batchCols, 0, n)
	} else {
		tensor.ParallelFor(n, colRows*colCols, func(i0, i1 int) {
			c.im2colRange(in, col, batchCols, i0, i1)
		})
	}

	gemmOut := p.buf[st.gemmOff : st.gemmOff+c.OutC*batchCols]
	tensor.GEMMEpilogue(c.W.Value.Data, col, gemmOut, c.OutC, colRows, batchCols,
		tensor.Epilogue{Act: st.act, RowBias: c.B.Value.Data}, &p.pack)

	if !tensor.ShouldParallel(n, c.OutC*colCols) {
		c.scatterRange(gemmOut, out, colCols, batchCols, 0, n)
	} else {
		tensor.ParallelFor(n, c.OutC*colCols, func(i0, i1 int) {
			c.scatterRange(gemmOut, out, colCols, batchCols, i0, i1)
		})
	}
}

// runPool executes a max-pooling step.
func (p *Plan) runPool(st *planStep, in, out []float32, n int) {
	pl := st.pool
	if !tensor.ShouldParallel(n, pl.InSize()*pl.Pool) {
		pl.poolRange(in, out, nil, 0, n)
	} else {
		tensor.ParallelFor(n, pl.InSize()*pl.Pool, func(i0, i1 int) {
			pl.poolRange(in, out, nil, i0, i1)
		})
	}
}

// runAct executes a standalone activation step (copy-apply into the output
// slot, preserving the ping-pong discipline).
func runAct(st *planStep, in, out []float32, n int) {
	switch st.act {
	case tensor.EpActReLU:
		for i, v := range in {
			if v < 0 {
				v = 0
			}
			out[i] = v
		}
	case tensor.EpActSigmoid:
		for i, v := range in {
			out[i] = Sigmoid32(v)
		}
	default:
		copy(out, in)
	}
	if st.softmax {
		for i := 0; i < n; i++ {
			SoftmaxRow(out[i*st.outW : (i+1)*st.outW])
		}
	}
}
