package cluster

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/network"
)

// runCachedAstraCluster runs a 4-replica astra cluster of NPU+PIM
// replicas (local PIM, two sub-batches) whose NPU configs alternate
// between two that differ only in MemoryBytes. Replicas share caches, or
// get private ones when caches is nil. It returns the report and the
// replica simulators in slot order.
func runCachedAstraCluster(t *testing.T, caches *engine.Caches) (*Report, []*core.Simulator) {
	t.Helper()
	topo, err := network.Build(network.Tensor, 2, 1, config.DefaultLink(), config.DefaultLink())
	if err != nil {
		t.Fatal(err)
	}
	npuA := config.DefaultNPU()
	npuB := npuA
	npuB.MemoryBytes += 1 << 30
	var sims []*core.Simulator
	factory := func(i int, _ Role) (*core.Simulator, error) {
		opts := core.Options{
			Model:        model.MustLookup("gpt2"),
			Topo:         topo,
			NPU:          npuA,
			PIM:          config.DefaultPIM(),
			PIMMode:      core.PIMLocal,
			KVPolicy:     kvcache.Paged,
			Reuse:        core.ReuseAll(),
			EngineCaches: caches,
		}
		opts.Sched.SubBatches = 2
		if i%2 == 1 {
			opts.NPU = npuB
		}
		sim, err := core.New(opts, nil)
		if err == nil {
			sims = append(sims, sim)
		}
		return sim, err
	}
	r, err := NewRouter(RouterLeastLoad)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Replicas:   4,
		NewReplica: factory,
		Router:     r,
		Classes:    testClasses(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(testTrace(t, 80))
	if err != nil {
		t.Fatal(err)
	}
	return rep, sims
}

// TestEngineCacheRouting: one cache set per cluster routes each engine
// configuration to its own cache, and sharing changes no simulated
// result, only which replica pays for a miss.
func TestEngineCacheRouting(t *testing.T) {
	shared, sharedSims := runCachedAstraCluster(t, &engine.Caches{})
	private, privateSims := runCachedAstraCluster(t, nil)
	if shared.Admitted == 0 {
		t.Fatal("no request admitted")
	}
	if !reflect.DeepEqual(shared, private) {
		t.Fatal("shared engine caches changed the cluster report")
	}
	if len(sharedSims) != 4 || len(privateSims) != 4 {
		t.Fatalf("built %d and %d replicas, want 4 each", len(sharedSims), len(privateSims))
	}

	npuCache := func(s *core.Simulator) *engine.Cache { return s.NPUStack().Cache() }
	pimCache := func(s *core.Simulator) *engine.Cache { return s.PIMStack().Cache() }
	a0, b1, a2, b3 := sharedSims[0], sharedSims[1], sharedSims[2], sharedSims[3]
	if npuCache(a0) != npuCache(a2) || npuCache(b1) != npuCache(b3) {
		t.Error("replicas with equal NPU configs must share one NPU cache")
	}
	if npuCache(a0) == npuCache(b1) {
		t.Error("NPU configs differing in MemoryBytes must not share a cache")
	}
	if pimCache(a0) != pimCache(b1) || pimCache(a0) != pimCache(b3) {
		t.Error("replicas with equal PIM configs must share one PIM cache")
	}
	if pimCache(a0) == npuCache(a0) || pimCache(a0) == npuCache(b1) {
		t.Error("PIM stacks must be keyed apart from NPU stacks")
	}
	seen := map[*engine.Cache]bool{}
	for _, s := range privateSims {
		for _, c := range []*engine.Cache{npuCache(s), pimCache(s)} {
			if seen[c] {
				t.Fatal("a nil cache set must give every stack a private cache")
			}
			seen[c] = true
		}
	}

	// Each replica looks up the same operators either way; with sharing,
	// fewer of those lookups run the engine.
	misses := func(st engine.StackStats) int64 { return st.SimulateCalls - st.SimulateHits }
	var sharedMisses, privateMisses int64
	for i := range sharedSims {
		for _, stack := range []func(*core.Simulator) *engine.Stack{
			(*core.Simulator).NPUStack, (*core.Simulator).PIMStack,
		} {
			s, p := stack(sharedSims[i]).Stats(), stack(privateSims[i]).Stats()
			if s.SimulateCalls != p.SimulateCalls || s.OpsSimulated != p.OpsSimulated ||
				s.SimulatedBusy != p.SimulatedBusy {
				t.Errorf("replica %d: lookups %d/%d busy %v/%v shared vs private",
					i, s.SimulateCalls, p.SimulateCalls, s.SimulatedBusy, p.SimulatedBusy)
			}
			sharedMisses += misses(s)
			privateMisses += misses(p)
		}
	}
	if sharedMisses >= privateMisses {
		t.Errorf("shared caches missed %d times, private %d: nothing was shared", sharedMisses, privateMisses)
	}
}
