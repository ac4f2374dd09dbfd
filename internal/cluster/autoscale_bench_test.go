package cluster

// Autoscaling hot-path benchmark: a roofline-priced fleet tracking a
// saturation ramp with a queue-depth policy. Exercises everything the
// dynamic-fleet layer adds per run — scaler ticks interleaved with
// arrivals, replica provisioning and construction mid-run, drain
// migration, and timeline bookkeeping — at the 10k-request scale the
// other cluster benchmarks use. Tracked in BENCH_hotpath.json and
// guarded by the CI benchmark-regression job.

import (
	"testing"

	"repro/internal/simtime"
	"repro/internal/workload"
)

// BenchmarkAutoscaleRamp runs 10k ramped requests over a 2-16 replica
// queue-depth-autoscaled fleet with cold-start provisioning.
func BenchmarkAutoscaleRamp(b *testing.B) {
	const n = 10000
	trace := scaleTrace(b, n, workload.Ramp{From: 0.5, To: 4})
	factory := backendReplicaFactory(b, "roofline")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewRouter(RouterLeastLoad)
		if err != nil {
			b.Fatal(err)
		}
		scaler, err := NewAutoscaler(ScaleQueueDepth, AutoscalerConfig{QueueTarget: 64})
		if err != nil {
			b.Fatal(err)
		}
		c, err := New(Config{
			Replicas:       2,
			NewReplica:     factory,
			Router:         r,
			Classes:        scaleClasses(),
			Scaling:        map[Role]PoolScaling{RoleUnified: {Scaler: scaler, Min: 2, Max: 16}},
			ScaleTick:      100 * simtime.Millisecond,
			ProvisionDelay: 200 * simtime.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := c.Run(trace)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Admitted+rep.Rejected != n {
			b.Fatalf("counts %d+%d of %d", rep.Admitted, rep.Rejected, n)
		}
		if peak := peakReplicas(rep); peak <= 2 {
			b.Fatalf("fleet never scaled: peak %d", peak)
		}
	}
}
