// Package astra executes execution graphs over the modelled system,
// substituting for ASTRA-sim's analytical backend.
//
// The simulator is discrete-event: a node becomes ready when its
// dependencies complete, then competes for its resources (device compute
// units, network ports, host DMA engines), each of which executes one node
// at a time. Among ready nodes the engine dispatches the one with the
// earliest feasible start, so independent work overlaps across devices and
// communication overlaps compute exactly as in ASTRA-sim's queue model.
package astra

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/simtime"
)

// NodeTiming records when one graph node executed.
type NodeTiming struct {
	Start, End simtime.Time
}

// Result is the outcome of executing a graph.
type Result struct {
	Makespan simtime.Duration
	Timings  []NodeTiming // indexed by node ID
}

type candidate struct {
	node  int
	start simtime.Time
}

// candidateHeap is a hand-rolled typed min-heap: container/heap boxes
// every pushed element in an interface, which at one pop per node per
// iteration dominated the executor's allocation profile.
type candidateHeap []candidate

func (h candidateHeap) before(i, j int) bool {
	if h[i].start != h[j].start {
		return h[i].start < h[j].start
	}
	return h[i].node < h[j].node // deterministic tie-break
}

func (h *candidateHeap) push(c candidate) {
	*h = append(*h, c)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *candidateHeap) pop() candidate {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && s.before(l, best) {
			best = l
		}
		if r < n && s.before(r, best) {
			best = r
		}
		if best == i {
			break
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
	return top
}

// Executor runs graphs while reusing all scheduling scratch state
// (successor arrays, resource timelines, the ready heap, the timings
// buffer) across calls. One graph executes per simulated iteration, so
// once the buffers have grown to the largest graph seen, Execute
// allocates nothing; Result.Timings aliases executor-owned storage valid
// until the next Execute call. An Executor is not safe for concurrent
// use; each simulator owns one.
type Executor struct {
	resFree []simtime.Time

	indeg   []int
	succOff []int
	succBuf []int
	fill    []int
	readyAt []simtime.Time
	done    []bool
	heap    candidateHeap
	timings []NodeTiming
}

// Execute runs the graph to completion and returns the schedule. The
// bookkeeping is flat: successor lists live in one offset-indexed array
// and per-resource state in a dense slice keyed by (class, device). The
// returned Result's Timings alias executor-owned storage, valid until
// the next Execute call.
func (e *Executor) Execute(g *graph.Graph) (Result, error) {
	if err := g.Validate(); err != nil {
		return Result{}, err
	}
	n := len(g.Nodes)
	if cap(e.timings) < n {
		e.timings = make([]NodeTiming, n)
	}
	res := Result{Timings: e.timings[:n]}
	clear(res.Timings)
	if n == 0 {
		return res, nil
	}

	// Dense resource indexing: class-major, device-minor.
	maxDev := 0
	for _, node := range g.Nodes {
		for _, r := range node.Resources {
			if r.Device > maxDev {
				maxDev = r.Device
			}
		}
	}
	stride := maxDev + 1
	ridx := func(r graph.Resource) int { return int(r.Class)*stride + r.Device }
	nRes := 3 * stride
	resFree := growZero(&e.resFree, nRes)

	// Successor lists in one flat array: count, prefix-sum, fill.
	indeg := growZero(&e.indeg, n)
	succOff := growZero(&e.succOff, n+1)
	fill := growZero(&e.fill, n)
	for _, node := range g.Nodes {
		indeg[node.ID] = len(node.Deps)
		for _, d := range node.Deps {
			succOff[d+1]++
		}
	}
	for i := 0; i < n; i++ {
		succOff[i+1] += succOff[i]
	}
	if cap(e.succBuf) < succOff[n] {
		e.succBuf = make([]int, succOff[n])
	}
	succBuf := e.succBuf[:succOff[n]]
	for _, node := range g.Nodes {
		for _, d := range node.Deps {
			succBuf[succOff[d]+fill[d]] = node.ID
			fill[d]++
		}
	}

	readyAt := growZero(&e.readyAt, n) // max end time of dependencies

	feasible := func(id int) simtime.Time {
		t := readyAt[id]
		for _, r := range g.Nodes[id].Resources {
			if f := resFree[ridx(r)]; f > t {
				t = f
			}
		}
		return t
	}

	h := &e.heap
	*h = (*h)[:0]
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			h.push(candidate{node: id, start: feasible(id)})
		}
	}

	scheduled := 0
	done := growZero(&e.done, n)
	for len(*h) > 0 {
		c := h.pop()
		if done[c.node] {
			continue
		}
		// Resource availability may have advanced since the candidate was
		// pushed; if so, re-queue it with the refreshed start (lazy
		// re-evaluation keeps the heap consistent as times only grow).
		now := feasible(c.node)
		if now > c.start {
			h.push(candidate{node: c.node, start: now})
			continue
		}
		node := g.Nodes[c.node]
		start := now
		end := start.Add(node.Duration)
		res.Timings[c.node] = NodeTiming{Start: start, End: end}
		done[c.node] = true
		scheduled++
		for _, r := range node.Resources {
			resFree[ridx(r)] = end
		}
		if d := end.Sub(0); d > res.Makespan {
			res.Makespan = d
		}
		for _, s := range succBuf[succOff[c.node]:succOff[c.node+1]] {
			if readyAt[s] < end {
				readyAt[s] = end
			}
			indeg[s]--
			if indeg[s] == 0 {
				h.push(candidate{node: s, start: feasible(s)})
			}
		}
	}
	if scheduled != n {
		return Result{}, fmt.Errorf("astra: deadlock, scheduled %d of %d nodes (cycle in graph?)", scheduled, n)
	}
	return res, nil
}

// growZero returns (*buf)[:n] zeroed, growing the backing array as
// needed.
func growZero[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
		return *buf
	}
	s := (*buf)[:n]
	clear(s)
	return s
}

// CriticalPath returns the node IDs of one longest finish-time chain, for
// diagnosing what bounds an iteration.
func CriticalPath(g *graph.Graph, r Result) []int {
	if len(g.Nodes) == 0 || len(r.Timings) != len(g.Nodes) {
		return nil
	}
	// Find the node finishing last, then walk back through the dependency
	// (or resource-wait) chain by picking the dep finishing latest.
	last := 0
	for id := range g.Nodes {
		if r.Timings[id].End > r.Timings[last].End {
			last = id
		}
	}
	var path []int
	for cur := last; ; {
		path = append(path, cur)
		deps := g.Nodes[cur].Deps
		if len(deps) == 0 {
			break
		}
		best := deps[0]
		for _, d := range deps[1:] {
			if r.Timings[d].End > r.Timings[best].End {
				best = d
			}
		}
		cur = best
	}
	// Reverse into execution order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}
