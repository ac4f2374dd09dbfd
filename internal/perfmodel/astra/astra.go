// Package astra adapts the paper's full hardware/system co-simulation
// pipeline — execution-engine compilation and simulation per operator,
// graph conversion, and discrete-event system simulation (the
// ASTRA-sim-style stage) — behind the perfmodel.Backend interface.
//
// This is the reference backend: it is the exact code path the simulator
// ran before latency estimation became pluggable, and the golden
// determinism suite pins it bit-for-bit. The roofline backend trades this
// fidelity for speed.
package astra

import (
	"fmt"
	"strconv"
	"time"

	astrasim "repro/internal/astra"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/engine/npu"
	"repro/internal/engine/pim"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// Options configures the engine stacks behind the adapter.
type Options struct {
	NPU config.NPUConfig
	PIM config.PIMConfig // used when Config.PIMMode != PIMNone

	// EngineFactory optionally overrides the NPU engine (e.g. with the
	// GPU reference model for validation runs). When nil the systolic
	// NPU engine is used.
	EngineFactory func() (engine.Engine, error)

	// Caches, when non-nil, supplies the engine result caches: the NPU
	// stack's is keyed by NPU and the PIM stack's by PIM, so backends
	// with identically configured engines share them. An EngineFactory
	// engine always gets a private cache (a func is not a usable key).
	// Nil gives every stack a private cache.
	Caches *engine.Caches
}

// Backend runs the Fig. 4 hardware/system pipeline for each iteration.
type Backend struct {
	cfg  perfmodel.Config
	npu  *engine.Stack
	pim  *engine.Stack
	host metrics.ComponentTimes

	// Reusable per-iteration scratch: the execution graph and its
	// conversion inputs are rebuilt every iteration, so their storage is
	// recycled rather than reallocated (see graph.ConvertInto).
	exec     astrasim.Executor // system-simulation scratch state
	gbuf     *graph.Graph
	itemsBuf []trace.Item
	memOps   []graph.MemOp
	reqBytes map[int]int64
	attnBuf  map[int]simtime.Duration
	itBuf    model.IterationOps
}

// New validates the configuration and assembles the engine stacks.
func New(cfg perfmodel.Config, opts Options) (*Backend, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &Backend{
		cfg:      cfg,
		gbuf:     graph.New(),
		reqBytes: map[int]int64{},
	}

	var eng engine.Engine
	var cache *engine.Cache
	var err error
	if opts.EngineFactory != nil {
		eng, err = opts.EngineFactory()
	} else {
		eng, err = npu.New(opts.NPU)
		cache = opts.Caches.For(opts.NPU)
	}
	if err != nil {
		return nil, err
	}
	b.npu = engine.NewStack(eng, cfg.Reuse.ComputationReuse, cache)

	if cfg.PIMMode != perfmodel.PIMNone {
		p, err := pim.New(opts.PIM)
		if err != nil {
			return nil, err
		}
		b.pim = engine.NewStack(p, cfg.Reuse.ComputationReuse, opts.Caches.For(opts.PIM))
	}
	return b, nil
}

// Name identifies the backend.
func (b *Backend) Name() string { return "astra" }

// DeviceMemoryBytes reports the NPU engine's device memory capacity.
func (b *Backend) DeviceMemoryBytes() int64 { return b.npu.Engine().MemoryBytes() }

// Host returns the adapter's accumulated host-time breakdown.
func (b *Backend) Host() metrics.ComponentTimes { return b.host }

// ResetStats zeroes host-time and engine-cache instrumentation; the
// result caches persist.
func (b *Backend) ResetStats() {
	b.host = metrics.ComponentTimes{}
	b.npu.ResetStats()
	if b.pim != nil {
		b.pim.ResetStats()
	}
}

// NPUStack exposes the NPU execution engine stack.
func (b *Backend) NPUStack() *engine.Stack { return b.npu }

// PIMStack exposes the PIM execution engine stack (nil when PIMMode is
// none).
func (b *Backend) PIMStack() *engine.Stack { return b.pim }

// placement derives the graph attention placement from the config.
func (b *Backend) placement() graph.AttentionPlacement {
	switch {
	case b.cfg.PIMMode == perfmodel.PIMPool:
		return graph.PIMPool
	case b.cfg.SelectiveBatching && b.cfg.Topo.TP > 1:
		return graph.RequestSplit
	default:
		return graph.HeadSplit
	}
}

// IterationLatency runs the hardware and system simulation of one batch
// and returns the iteration latency. The discrete-event schedule
// interleaves compute, memory, and network inseparably, so the breakdown
// is left zero.
func (b *Backend) IterationLatency(batch *sched.Batch) (simtime.Duration, perfmodel.Breakdown, error) {
	work, embedDur, headDur, totalNew, err := b.runEngines(batch)
	if err != nil {
		return 0, perfmodel.Breakdown{}, err
	}

	t0 := time.Now()
	g, err := b.convert(batch, work, embedDur, headDur, totalNew)
	b.host.GraphConverter += time.Since(t0)
	if err != nil {
		return 0, perfmodel.Breakdown{}, err
	}

	t0 = time.Now()
	res, err := b.exec.Execute(g)
	b.host.AstraSim += time.Since(t0)
	if err != nil {
		return 0, perfmodel.Breakdown{}, err
	}
	return res.Makespan, perfmodel.Breakdown{}, nil
}

// runEngines performs the execution-engine phase: build each sub-batch's
// operator workload, map operators to engines (Algorithm 1, line 6), run
// the compiler/simulator stacks, and merge the traces.
func (b *Backend) runEngines(batch *sched.Batch) (graph.BlockWork, simtime.Duration, simtime.Duration, int, error) {
	t0 := time.Now()
	defer func() { b.host.ExecutionEngine += time.Since(t0) }()

	var zero graph.BlockWork
	subBatches := groupSeqs(batch)
	reps := 1
	if !b.cfg.Reuse.ModelRedundancy {
		// Without model-redundancy reuse every transformer block is
		// compiled and simulated separately, like conventional simulators.
		reps = b.cfg.Model.Layers
	}

	allItems := b.itemsBuf[:0]
	defer func() { b.itemsBuf = allItems[:0] }()
	var embedDur, headDur simtime.Duration
	totalNew := 0
	pool := b.cfg.PIMMode == perfmodel.PIMPool

	for sbIdx, seqs := range subBatches {
		it := &b.itBuf
		if err := model.BuildIterationInto(it, b.cfg.Model, seqs, b.cfg.Topo.TP); err != nil {
			return zero, 0, 0, 0, err
		}
		totalNew += it.TotalNewTokens

		for rep := 0; rep < reps; rep++ {
			for i, op := range it.Block {
				stack, runOp := b.mapOperator(op, pool)
				latency, err := stack.RunLatency(runOp)
				if err != nil {
					return zero, 0, 0, 0, err
				}
				if rep == 0 {
					allItems = append(allItems, trace.Item{
						Op:       op,
						Engine:   stack.Engine().Name(),
						Kind:     stack.Engine().Kind(),
						Latency:  latency,
						SubBatch: sbIdx,
						Seq:      i,
					})
				}
			}
		}
		eDur, err := b.npu.RunLatency(it.Embed)
		if err != nil {
			return zero, 0, 0, 0, err
		}
		hDur, err := b.npu.RunLatency(it.Head)
		if err != nil {
			return zero, 0, 0, 0, err
		}
		embedDur += eDur
		headDur += hDur
	}

	work, err := b.assembleBlockWork(allItems, len(subBatches))
	if err != nil {
		return zero, 0, 0, 0, err
	}
	return work, embedDur, headDur, totalNew, nil
}

// mapOperator implements the operator-mapping strategy: attention-core
// operators go to the PIM stack when one is configured; with a PIM pool,
// attention runs at full head count on the pool devices (the group's head
// shards gather there), so the operator is widened accordingly.
func (b *Backend) mapOperator(op model.Op, pool bool) (*engine.Stack, model.Op) {
	if b.pim == nil || !op.Kind.IsAttention() {
		return b.npu, op
	}
	if pool {
		op.Heads *= b.cfg.Topo.TP
	}
	return b.pim, op
}

// assembleBlockWork reduces the merged engine trace into the graph
// converter's per-layer work description.
func (b *Backend) assembleBlockWork(items []trace.Item, nSub int) (graph.BlockWork, error) {
	var work graph.BlockWork
	if len(items) == 0 {
		return work, fmt.Errorf("astra backend: engine phase produced no trace items")
	}

	if b.attnBuf == nil {
		b.attnBuf = map[int]simtime.Duration{}
	}
	if nSub > 1 {
		// Sub-batch interleaving: the execution engine stack's operator
		// scheduler overlaps sub-batches across the heterogeneous engines
		// (Algorithm 1, line 14); the block behaves as one fused span.
		sched := trace.Greedy(items)
		if err := sched.Validate(); err != nil {
			return work, err
		}
		work.Monolithic = sched.Makespan
		// Attention identities are still needed for placement bookkeeping.
		clear(b.attnBuf)
		work.Attn = b.attnBuf
		for _, it := range items {
			if it.Op.Kind.IsAttention() {
				work.Attn[it.Op.ReqID] += it.Latency
			}
		}
		return work, nil
	}

	seg := trace.SplitSegmentsInto(items, b.attnBuf)
	work.Pre, work.Post = seg.Pre, seg.Post
	work.Attn = seg.Attn
	if b.cfg.PIMMode == perfmodel.PIMPool {
		// Attention items carry full-head PIM costs; expose them for the
		// pool placement and keep per-request identity for fan-out.
		work.PIMAttn = seg.Attn
	}
	return work, nil
}

// convert builds the iteration's execution graph into the backend's
// reused graph buffer; the result is valid until the next convert call.
func (b *Backend) convert(batch *sched.Batch, work graph.BlockWork, embedDur, headDur simtime.Duration, totalNew int) (*graph.Graph, error) {
	m := b.cfg.Model
	d := int64(m.DTypeBytes)
	actBytes := int64(totalNew) * int64(m.Hidden) * d

	clear(b.reqBytes)
	for _, q := range batch.Seqs {
		b.reqBytes[q.ReqID] = int64(q.NewTokens) * int64(m.Hidden) * d
	}

	// KV paging transfers are sharded across devices; stage-0 workers gate
	// the iteration, so the per-device share is charged there.
	memOps := b.memOps[:0]
	if len(batch.PageOps) > 0 {
		npus := int64(b.cfg.Topo.NPUNodes())
		stage0 := b.cfg.Topo.StageNodes(0)
		for _, op := range batch.PageOps {
			share := op.Bytes / npus
			if share == 0 {
				share = op.Bytes
			}
			label := pageOpLabel(op)
			for _, dev := range stage0 {
				memOps = append(memOps, graph.MemOp{
					Device: dev, Bytes: share, Load: op.Load, Label: label,
				})
			}
		}
	}
	b.memOps = memOps

	b.gbuf.Reset()
	err := graph.ConvertInto(b.gbuf, graph.Params{
		Topo:            b.cfg.Topo,
		Layers:          m.Layers,
		Block:           work,
		EmbedDur:        embedDur,
		HeadDur:         headDur,
		ActBytes:        actBytes,
		HeadGatherBytes: int64(len(batch.Seqs)) * int64(m.Vocab/b.cfg.Topo.TP) * d,
		ReqBytes:        b.reqBytes,
		Placement:       b.placement(),
		MemOps:          memOps,
	})
	if err != nil {
		return nil, err
	}
	return b.gbuf, nil
}

// pageOpLabel builds "evict.r<ID>"/"reload.r<ID>" without fmt (one per
// paging op per iteration, on the hot path).
func pageOpLabel(op sched.PageOp) string {
	prefix := "evict.r"
	if op.Load {
		prefix = "reload.r"
	}
	buf := make([]byte, 0, len(prefix)+8)
	buf = append(buf, prefix...)
	buf = strconv.AppendInt(buf, int64(op.ReqID), 10)
	return string(buf)
}

// groupSeqs splits the batch into sub-batch sequence groups in index
// order.
func groupSeqs(b *sched.Batch) [][]model.Seq {
	n := 1
	for _, sb := range b.SubBatch {
		if sb+1 > n {
			n = sb + 1
		}
	}
	if n == 1 {
		// Unpartitioned batch (the common case): one group, already in
		// batch order.
		return [][]model.Seq{b.Seqs}
	}
	groups := make([][]model.Seq, n)
	for _, q := range b.Seqs {
		sb := b.SubBatch[q.ReqID]
		groups[sb] = append(groups[sb], q)
	}
	// Drop empty groups (possible when eviction removed all of one group).
	out := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}
