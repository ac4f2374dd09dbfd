// Package trace holds per-engine operator traces and the operator
// scheduler that merges them (Algorithm 1, line 14).
//
// Each execution engine simulates the operators mapped to it and emits
// trace items carrying the operator, the engine that ran it, and the
// simulated latency. The operator scheduler reconstructs a single device
// timeline from multiple engines' items using a greedy list-scheduling
// heuristic that respects program order within a sub-batch while letting
// independent sub-batches overlap across heterogeneous engines — the
// NPU+PIM sub-batch interleaving of NeuPIMs.
package trace

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/simtime"
)

// Item is one simulated operator occurrence in an engine trace.
type Item struct {
	Op       model.Op
	Engine   string      // engine instance name
	Kind     engine.Kind // accelerator class (the scheduling resource)
	Latency  simtime.Duration
	SubBatch int // sub-batch the op belongs to (0 if unpartitioned)
	Seq      int // program order within the sub-batch
}

// Scheduled is an item placed on the merged timeline.
type Scheduled struct {
	Item
	Start simtime.Duration // offset from the schedule origin
	End   simtime.Duration
}

// Schedule is the merged, ordered timeline of one iteration on one
// (possibly heterogeneous) device.
type Schedule struct {
	Items    []Scheduled
	Makespan simtime.Duration
	// BusyTime per accelerator class, for utilisation accounting.
	Busy map[engine.Kind]simtime.Duration
}

// Greedy merges engine traces into one timeline. Items within a sub-batch
// execute in Seq order (true data dependencies); items from different
// sub-batches are independent and may overlap when they occupy different
// engine kinds. At each step the scheduler dispatches, among ready items,
// the one that can start earliest (ties broken by sub-batch then Seq),
// modelling the paper's greedy heuristic that "maximizes hardware
// utilization by allowing overlapping between operators and sub-batches".
func Greedy(items []Item) Schedule {
	if len(items) == 0 {
		return Schedule{Busy: map[engine.Kind]simtime.Duration{}}
	}

	// Group items into per-sub-batch chains, each sorted by program order.
	chains := map[int][]Item{}
	for _, it := range items {
		chains[it.SubBatch] = append(chains[it.SubBatch], it)
	}
	chainIDs := make([]int, 0, len(chains))
	for id := range chains {
		sort.SliceStable(chains[id], func(a, b int) bool { return chains[id][a].Seq < chains[id][b].Seq })
		chainIDs = append(chainIDs, id)
	}
	sort.Ints(chainIDs)

	head := map[int]int{}                            // next unscheduled index per chain
	chainFree := map[int]simtime.Duration{}          // when the chain's previous op ends
	engineFree := map[engine.Kind]simtime.Duration{} // when each engine becomes idle

	sched := Schedule{
		Items: make([]Scheduled, 0, len(items)),
		Busy:  map[engine.Kind]simtime.Duration{},
	}
	remaining := len(items)
	for remaining > 0 {
		// Find the ready item with the earliest feasible start.
		bestChain := -1
		var bestStart simtime.Duration
		for _, id := range chainIDs {
			idx := head[id]
			if idx >= len(chains[id]) {
				continue
			}
			it := chains[id][idx]
			start := simtime.Max(chainFree[id], engineFree[it.Kind])
			if bestChain == -1 || start < bestStart ||
				(start == bestStart && id < bestChain) {
				bestChain, bestStart = id, start
			}
		}
		it := chains[bestChain][head[bestChain]]
		head[bestChain]++
		end := bestStart + it.Latency
		chainFree[bestChain] = end
		engineFree[it.Kind] = end
		sched.Busy[it.Kind] += it.Latency
		if end > sched.Makespan {
			sched.Makespan = end
		}
		sched.Items = append(sched.Items, Scheduled{Item: it, Start: bestStart, End: end})
		remaining--
	}
	return sched
}

// Serial places all items back-to-back in (SubBatch, Seq) order: the
// no-overlap baseline a homogeneous single engine produces.
func Serial(items []Item) Schedule {
	sorted := append([]Item(nil), items...)
	sort.SliceStable(sorted, func(a, b int) bool {
		if sorted[a].SubBatch != sorted[b].SubBatch {
			return sorted[a].SubBatch < sorted[b].SubBatch
		}
		return sorted[a].Seq < sorted[b].Seq
	})
	sched := Schedule{
		Items: make([]Scheduled, 0, len(sorted)),
		Busy:  map[engine.Kind]simtime.Duration{},
	}
	var t simtime.Duration
	for _, it := range sorted {
		sched.Items = append(sched.Items, Scheduled{Item: it, Start: t, End: t + it.Latency})
		sched.Busy[it.Kind] += it.Latency
		t += it.Latency
	}
	sched.Makespan = t
	return sched
}

// Utilization returns the busy fraction of the given engine kind over the
// schedule makespan.
func (s Schedule) Utilization(k engine.Kind) float64 {
	if s.Makespan == 0 {
		return 0
	}
	return float64(s.Busy[k]) / float64(s.Makespan)
}

// Validate checks schedule invariants: no two items overlap on the same
// engine kind, and program order holds within each sub-batch.
func (s Schedule) Validate() error {
	byKind := map[engine.Kind][]Scheduled{}
	byChain := map[int][]Scheduled{}
	for _, it := range s.Items {
		byKind[it.Kind] = append(byKind[it.Kind], it)
		byChain[it.SubBatch] = append(byChain[it.SubBatch], it)
	}
	for k, items := range byKind {
		sort.Slice(items, func(a, b int) bool { return items[a].Start < items[b].Start })
		for i := 1; i < len(items); i++ {
			if items[i].Start < items[i-1].End {
				return fmt.Errorf("trace: overlap on %s: %q [%v,%v) vs %q [%v,%v)",
					k, items[i-1].Op.Name, items[i-1].Start, items[i-1].End,
					items[i].Op.Name, items[i].Start, items[i].End)
			}
		}
	}
	for id, items := range byChain {
		sort.Slice(items, func(a, b int) bool { return items[a].Seq < items[b].Seq })
		for i := 1; i < len(items); i++ {
			if items[i].Start < items[i-1].End {
				return fmt.Errorf("trace: sub-batch %d order violation: %q starts %v before %q ends %v",
					id, items[i].Op.Name, items[i].Start, items[i-1].Op.Name, items[i-1].End)
			}
		}
	}
	return nil
}

// Segments decomposes one transformer block's serial trace (single
// sub-batch, homogeneous engine) into the three regions the graph
// converter lays out per worker: the pre-attention region (LayerNorm1 +
// QKV), the per-request attention core, and the post-attention region
// (Proj through Residual2).
type Segments struct {
	Pre  simtime.Duration         // LayerNorm1 + QKVGen
	Attn map[int]simtime.Duration // per-request attention core (by ReqID)
	Post simtime.Duration         // Proj, Residual, LayerNorm2, FFN1, FFN2, Residual
}

// SplitSegmentsInto computes Segments from a block's trace items,
// reusing the non-nil attn (cleared first) as the per-request attention
// map so the per-iteration path does not re-allocate it every batch.
func SplitSegmentsInto(items []Item, attn map[int]simtime.Duration) Segments {
	clear(attn)
	seg := Segments{Attn: attn}
	seenAttention := false
	for _, it := range items {
		switch {
		case it.Op.Kind.IsAttention():
			seenAttention = true
			seg.Attn[it.Op.ReqID] += it.Latency
		case !seenAttention:
			seg.Pre += it.Latency
		default:
			seg.Post += it.Latency
		}
	}
	return seg
}
