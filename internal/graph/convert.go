package graph

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"repro/internal/network"
	"repro/internal/simtime"
)

// AttentionPlacement selects how the attention core is distributed, the
// axis along which LLMServingSim differs between homogeneous Megatron-style
// execution, Orca's selective batching, and the NPU+PIM pool system.
type AttentionPlacement int

const (
	// HeadSplit keeps attention on each tensor-parallel worker, sharded by
	// heads (classic Megatron execution).
	HeadSplit AttentionPlacement = iota
	// RequestSplit applies selective batching: each request's full-head
	// attention runs on one worker of the group, requests round-robined
	// across workers (Fig. 3).
	RequestSplit
	// PIMPool offloads each request's attention to a node of the PIM pool
	// with explicit transfer operators before and after (Fig. 5(b)).
	PIMPool
)

func (p AttentionPlacement) String() string {
	switch p {
	case HeadSplit:
		return "head-split"
	case RequestSplit:
		return "request-split"
	case PIMPool:
		return "pim-pool"
	default:
		return fmt.Sprintf("AttentionPlacement(%d)", int(p))
	}
}

// MemOp is a KV-cache paging action the scheduler decided on, to be
// inserted into the graph as a host transfer (Section IV-A, "KV
// cache-aware memory modeling").
type MemOp struct {
	Device int
	Bytes  int64
	Load   bool // true = reload from host, false = evict to host
	Label  string
}

// BlockWork carries one transformer block's simulated durations for a
// single tensor-parallel worker, as produced by the execution engine stack
// and split by trace.SplitSegmentsInto.
type BlockWork struct {
	Pre  simtime.Duration         // LayerNorm1 + QKV projection
	Post simtime.Duration         // Proj through final residual
	Attn map[int]simtime.Duration // per-request attention at local head count

	// PIMAttn is the per-request full-head attention time on a PIM device;
	// required when Placement is PIMPool.
	PIMAttn map[int]simtime.Duration

	// Monolithic, when positive, replaces the Pre/Attn/Post interior with
	// a single fused span per worker — the form the execution engine
	// stack's operator scheduler produces when sub-batch interleaving
	// overlaps work across heterogeneous engines inside one device node.
	Monolithic simtime.Duration
}

// Params configures one iteration's graph conversion.
type Params struct {
	Topo   network.Topology
	Layers int
	Block  BlockWork

	EmbedDur simtime.Duration // embedding, on every stage-0 worker
	HeadDur  simtime.Duration // LM head, on every last-stage worker

	// ActBytes is the activation payload per tensor-parallel worker at
	// stage boundaries and per all-reduce (totalNewTokens x hidden x dtype).
	ActBytes int64
	// HeadGatherBytes is the logit payload all-gathered after the LM head.
	HeadGatherBytes int64
	// ReqBytes is each request's activation payload, used for transfers to
	// and from the PIM pool.
	ReqBytes map[int]int64

	Placement AttentionPlacement
	MemOps    []MemOp
}

// Node labels repeat across iterations (the same stages, layers, and
// block parts every time), so they are interned in a process-wide cache
// instead of being formatted per node — label formatting used to be a
// top entry in hot-loop profiles. Labels are bounded by stages x layers
// x parts; per-request labels (which are unbounded) are built with
// strconv appends instead.
const (
	partPre = iota
	partAttn
	partPost
	partAllReduce
	partBlock
)

var partName = [...]string{"pre", "attn", "post", "allreduce", "block"}

// labelTable holds every static label of a (stages, layers) shape:
// layer[s][l][part] plus the per-stage transfer labels. ConvertInto
// fetches one table per call, so label access inside the layer loop is
// a plain array index.
type labelTable struct {
	layer [][][len(partName)]string
	stage []string // stage[s] = "stage{s-1}->{s}"
}

var labelTables sync.Map // uint64(stages)<<32 | layers -> *labelTable

func labelsFor(stages, layers int) *labelTable {
	key := uint64(stages)<<32 | uint64(layers)
	if v, ok := labelTables.Load(key); ok {
		return v.(*labelTable)
	}
	t := &labelTable{
		layer: make([][][len(partName)]string, stages),
		stage: make([]string, stages),
	}
	for s := 0; s < stages; s++ {
		t.stage[s] = fmt.Sprintf("stage%d->%d", s-1, s)
		t.layer[s] = make([][len(partName)]string, layers)
		for l := 0; l < layers; l++ {
			for part, name := range partName {
				t.layer[s][l][part] = fmt.Sprintf("s%d.l%d.%s", s, l, name)
			}
		}
	}
	labelTables.Store(key, t)
	return t
}

// reqLabel builds "<base>.r<ID><suffix>" without fmt.
func reqLabel(base string, r int, suffix string) string {
	b := make([]byte, 0, len(base)+len(suffix)+8)
	b = append(b, base...)
	b = append(b, ".r"...)
	b = strconv.AppendInt(b, int64(r), 10)
	b = append(b, suffix...)
	return string(b)
}

// Convert builds the execution graph of one serving iteration: embedding
// on stage 0, Layers transformer blocks distributed over pipeline stages
// (tensor-parallel within each stage, with all-reduce synchronisation),
// point-to-point activation transfers between stages, attention placed per
// Params.Placement, KV paging transfers, and the LM head on the final
// stage.
func Convert(p Params) (*Graph, error) {
	g := New()
	if err := ConvertInto(g, p); err != nil {
		return nil, err
	}
	return g, nil
}

// ConvertInto builds the iteration graph into g (which must be empty or
// Reset), so iteration-driving hot loops can reuse one graph's storage.
func ConvertInto(g *Graph, p Params) error {
	topo := p.Topo
	if err := topo.Validate(); err != nil {
		return err
	}
	if p.Layers <= 0 {
		return fmt.Errorf("graph: layers must be positive, got %d", p.Layers)
	}
	if len(p.Block.Attn) == 0 && p.Block.Monolithic <= 0 {
		return fmt.Errorf("graph: block has no attention work (empty batch?)")
	}
	if p.Placement == PIMPool && p.Block.Monolithic <= 0 {
		if topo.PIMPool <= 0 {
			return fmt.Errorf("graph: PIM placement requires a PIM pool in the topology")
		}
		if len(p.Block.PIMAttn) == 0 {
			return fmt.Errorf("graph: PIM placement requires PIMAttn durations")
		}
	}

	// The request-scattered placements need per-request identities in a
	// deterministic order; head-split batches only need the total, so the
	// sort is skipped on that fast path.
	var reqIDs []int
	if p.Block.Monolithic <= 0 && p.Placement != HeadSplit {
		reqIDs = sortedKeys(p.Block.Attn)
	}
	var attnTotal simtime.Duration
	for _, d := range p.Block.Attn {
		attnTotal += d
	}

	// KV paging transfers run up front on each device's DMA engine; the
	// device's first compute of the iteration waits for them.
	var memDeps map[int][]int
	if len(p.MemOps) > 0 {
		memDeps = make(map[int][]int, len(p.MemOps))
		for _, m := range p.MemOps {
			d := topo.HostTransfer(m.Bytes)
			id := g.AddMemOp(m.Label, m.Device, m.Load, d, m.Bytes)
			memDeps[m.Device] = append(memDeps[m.Device], id)
		}
	}

	layersOf := distributeLayers(p.Layers, topo.Stages)
	labels := labelsFor(topo.Stages, p.Layers)

	// Stage device lists are needed several times each; fetch them once.
	stageDevs := make([][]int, topo.Stages)
	for s := range stageDevs {
		stageDevs[s] = topo.StageNodes(s)
	}

	// cv carries the per-worker positional state through the pipeline:
	// entry[i] is the node worker i's next compute must wait on, aligned
	// with the current stage's device list (worker i of a stage feeds
	// worker i of the next).
	group := len(stageDevs[0])
	cv := converter{
		g: g, topo: topo, p: &p, reqIDs: reqIDs, memDeps: memDeps,
		labels:    labels,
		attnTotal: attnTotal,
		entry:     make([]int, group),
		scratch:   make([]int, group),
	}

	// Stage 0: embedding on every worker.
	for i, dev := range stageDevs[0] {
		cv.entry[i] = g.AddCompute("embed", dev, p.EmbedDur, memDeps[dev]...)
	}

	for s := 0; s < topo.Stages; s++ {
		devs := stageDevs[s]
		if s > 0 {
			// Activation transfer from the corresponding worker of the
			// previous stage.
			prevDevs := stageDevs[s-1]
			label := labels.stage[s]
			for i, dev := range devs {
				d := topo.P2P(p.ActBytes)
				deps := append(cv.depsBuf[:0], cv.entry[i])
				deps = append(deps, memDeps[dev]...)
				cv.depsBuf = deps
				cv.entry[i] = g.AddP2P(label, prevDevs[i], dev, d, p.ActBytes, deps...)
			}
		}

		for l := 0; l < layersOf[s]; l++ {
			cv.emitLayer(s, l, devs)
		}
	}

	// LM head on the final stage, then logits all-gather across the group.
	lastDevs := stageDevs[topo.Stages-1]
	headIDs := cv.scratch[:0]
	for i, dev := range lastDevs {
		headIDs = append(headIDs, g.AddCompute("lmhead", dev, p.HeadDur, cv.entry[i]))
	}
	if topo.TP > 1 && p.HeadGatherBytes > 0 {
		d := topo.AllGather(p.HeadGatherBytes, topo.TP)
		g.AddAllReduce("logit-gather", lastDevs, d, p.HeadGatherBytes, headIDs...)
	}

	// The builders above emit in topological order; the executor
	// validates before running, so the graph is not re-validated here.
	return nil
}

// converter holds the positional per-worker state and scratch buffers of
// one Convert call, so the layer loop runs without per-layer maps or
// allocations.
type converter struct {
	g       *Graph
	topo    network.Topology
	p       *Params
	reqIDs  []int
	memDeps map[int][]int
	labels  *labelTable

	attnTotal simtime.Duration // head-split per-worker attention span

	entry   []int // per worker position: node its next compute waits on
	scratch []int // per-stage staging (pre/post/block/head node IDs)
	depsBuf []int
	pimRR   int

	// multiDeps backs the per-worker multi-dependency lists of the
	// request-scattered attention placements.
	multiDeps [][]int
}

// emitLayer adds one transformer block for stage s at the current entry
// frontier, advancing it in place.
func (cv *converter) emitLayer(s, l int, devs []int) {
	g, topo, p := cv.g, cv.topo, cv.p

	if p.Block.Monolithic > 0 {
		// Fused block interior (sub-batch interleaved execution): one
		// compute span per worker, then the group collective.
		label := cv.labels.layer[s][l][partBlock]
		ids := cv.scratch[:0]
		for i, dev := range devs {
			id := g.AddCompute(label, dev, p.Block.Monolithic, cv.entry[i])
			ids = append(ids, id)
			cv.entry[i] = id
		}
		if topo.TP > 1 {
			d := 2 * topo.AllReduce(p.ActBytes, topo.TP)
			cid := g.AddAllReduce(cv.labels.layer[s][l][partAllReduce], devs, d, 2*p.ActBytes, ids...)
			for i := range devs {
				cv.entry[i] = cid
			}
		}
		return
	}

	preLabel := cv.labels.layer[s][l][partPre]
	pre := cv.scratch[:len(devs)]
	for i, dev := range devs {
		pre[i] = g.AddCompute(preLabel, dev, p.Block.Pre, cv.entry[i])
	}

	// Attention core. The head-split fast path keeps one attention node
	// per worker in entry; the request-scattered placements accumulate
	// per-worker dependency lists in multiDeps.
	attnLabel := cv.labels.layer[s][l][partAttn]
	multi := false
	switch p.Placement {
	case HeadSplit:
		for i, dev := range devs {
			cv.entry[i] = g.AddCompute(attnLabel, dev, cv.attnTotal, pre[i])
		}
	case RequestSplit:
		// Each request's full-head attention on one worker; a worker's
		// full-head cost is its local-head cost scaled by the group size
		// (heads are independent repetitions).
		multi = true
		cv.resetMulti(len(devs))
		for i, r := range cv.reqIDs {
			w := i % len(devs)
			d := p.Block.Attn[r] * simtime.Duration(topo.TP)
			id := g.AddCompute(reqLabel(attnLabel, r, ""), devs[w], d, pre[w])
			cv.multiDeps[w] = append(cv.multiDeps[w], id)
		}
	case PIMPool:
		multi = true
		cv.resetMulti(len(devs))
		pims := topo.PIMNodes()
		for i, r := range cv.reqIDs {
			w := i % len(devs)
			owner := devs[w]
			pimDev := pims[cv.pimRR%len(pims)]
			cv.pimRR++
			bytes := p.ReqBytes[r]
			out := g.AddP2P(reqLabel(attnLabel, r, ".toPIM"),
				owner, pimDev, topo.P2P(bytes), bytes, pre[w])
			comp := g.AddCompute(reqLabel(attnLabel, r, ".pim"),
				pimDev, p.Block.PIMAttn[r], out)
			back := g.AddP2P(reqLabel(attnLabel, r, ".fromPIM"),
				pimDev, owner, topo.P2P(bytes), bytes, comp)
			cv.multiDeps[w] = append(cv.multiDeps[w], back)
		}
	}

	postLabel := cv.labels.layer[s][l][partPost]
	post := cv.scratch[:0] // pre is consumed above; reuse its backing
	for i, dev := range devs {
		var id int
		if multi {
			deps := cv.multiDeps[i]
			if len(deps) == 0 {
				// Workers without requests proceed straight from pre.
				deps = append(deps, pre[i])
			}
			id = g.AddCompute(postLabel, dev, p.Block.Post, deps...)
		} else {
			id = g.AddCompute(postLabel, dev, p.Block.Post, cv.entry[i])
		}
		post = append(post, id)
		cv.entry[i] = id
	}

	if topo.TP > 1 {
		// Two ring all-reduces per block (after attention projection and
		// after FFN2), merged into one collective node of doubled cost.
		d := 2 * topo.AllReduce(p.ActBytes, topo.TP)
		id := g.AddAllReduce(cv.labels.layer[s][l][partAllReduce], devs, d, 2*p.ActBytes, post...)
		for i := range devs {
			cv.entry[i] = id
		}
	}
}

// resetMulti clears the per-worker multi-dependency lists.
func (cv *converter) resetMulti(n int) {
	if cap(cv.multiDeps) < n {
		cv.multiDeps = make([][]int, n)
	}
	cv.multiDeps = cv.multiDeps[:n]
	for i := range cv.multiDeps {
		cv.multiDeps[i] = cv.multiDeps[i][:0]
	}
}

// distributeLayers spreads n layers over s pipeline stages as evenly as
// possible; leading stages take the remainder (a stage may hold zero
// layers when stages exceed layers, and then only forwards activations).
func distributeLayers(n, s int) []int {
	out := make([]int, s)
	base, extra := n/s, n%s
	for i := range out {
		out[i] = base
		if i < extra {
			out[i]++
		}
	}
	return out
}

func sortedKeys(m map[int]simtime.Duration) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
