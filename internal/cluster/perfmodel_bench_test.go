package cluster

// Backend benchmarks: the astra pipeline vs the analytical roofline
// backend on the same saturated cluster scenario (real NPU hardware
// model on both sides — the astra rows run the systolic-array engine,
// not the flat stub of the scale benchmarks). These are the numbers
// behind the "roofline >= 20x faster" acceptance line, tracked in
// BENCH_hotpath.json and guarded by the CI benchmark-regression job.

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/perfmodel"
	"repro/internal/perfmodel/roofline"
	"repro/internal/workload"
)

// backendReplicaFactory builds 2-NPU gpt2 replicas priced by the named
// backend. Device memory is pinched to 200 MiB per NPU (as in the scale
// benchmarks) so saturated replicas still churn the KV machinery. The
// astra replicas of one factory share one engine result-cache set, as
// the replicas of one cluster build do, so a run that must start with
// cold caches takes a fresh factory.
func backendReplicaFactory(b testing.TB, backend string) func(int, Role) (*core.Simulator, error) {
	b.Helper()
	topo, err := network.Build(network.Tensor, 2, 1, config.DefaultLink(), config.DefaultLink())
	if err != nil {
		b.Fatal(err)
	}
	npuCfg := config.DefaultNPU()
	npuCfg.MemoryBytes = 200 << 20
	opts := core.Options{
		Model:        model.MustLookup("gpt2"),
		Topo:         topo,
		NPU:          npuCfg,
		KVPolicy:     kvcache.Paged,
		Reuse:        core.ReuseAll(),
		EngineCaches: &engine.Caches{},
	}
	if backend == "roofline" {
		pc := perfmodel.Config{Model: opts.Model, Topo: topo, Reuse: opts.Reuse}
		hw := perfmodel.HardwareFromNPU(npuCfg)
		opts.Backend = func() (perfmodel.Backend, error) { return roofline.New(pc, hw) }
	}
	return func(int, Role) (*core.Simulator, error) { return core.New(opts, nil) }
}

func runBackendCluster(b *testing.B, backend string, replicas, n int) {
	b.Helper()
	trace := scaleTrace(b, n, workload.Ramp{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewRouter(RouterLeastLoad)
		if err != nil {
			b.Fatal(err)
		}
		c, err := New(Config{
			Replicas: replicas,
			// A fresh factory per iteration: every run starts cold.
			NewReplica: backendReplicaFactory(b, backend),
			Router:     r,
			Classes:    scaleClasses(),
		})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := c.Run(trace)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Admitted != n {
			b.Fatalf("admitted %d of %d", rep.Admitted, n)
		}
	}
}

// BenchmarkClusterRooflineVsAstra is the ISSUE 4 acceptance benchmark:
// the 16-replica/10k-request cluster scenario under both backends.
func BenchmarkClusterRooflineVsAstra(b *testing.B) {
	for _, backend := range []string{"astra", "roofline"} {
		b.Run(fmt.Sprintf("backend=%s/replicas=16/reqs=10000", backend), func(b *testing.B) {
			runBackendCluster(b, backend, 16, 10000)
		})
	}
}

// BenchmarkRooflineLargeSweep is the design-space regime the analytical
// backend targets: a 32-configuration sweep of 4-replica clusters (the
// work a Sweep worker pool distributes), entirely roofline-priced.
func BenchmarkRooflineLargeSweep(b *testing.B) {
	const (
		sweepPoints = 32
		replicas    = 4
		n           = 2000
	)
	trace := scaleTrace(b, n, workload.Ramp{})
	factory := backendReplicaFactory(b, "roofline")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < sweepPoints; p++ {
			r, err := NewRouter(RouterLeastLoad)
			if err != nil {
				b.Fatal(err)
			}
			c, err := New(Config{
				Replicas:   replicas,
				NewReplica: factory,
				Router:     r,
				Classes:    scaleClasses(),
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.Run(trace); err != nil {
				b.Fatal(err)
			}
		}
	}
}
