package llmservingsim

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

func apiClasses() []TrafficClass {
	return []TrafficClass{
		{Name: "chat", Dist: "alpaca", RatePerSec: 4,
			TTFT: 2 * time.Second, TPOT: 200 * time.Millisecond},
		{Name: "api", Dist: "fixed-64-32", RatePerSec: 8,
			TTFT: time.Second, TPOT: 100 * time.Millisecond},
	}
}

func apiClusterScenario(t *testing.T, name string, router RouterPolicy) ClusterScenario {
	t.Helper()
	trace, err := MultiClassTrace(apiClasses(), 40, Ramp{}, 21)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Model = "gpt2"
	cfg.NPUs = 2
	cfg.Parallelism = ParallelismTensor
	return ClusterScenario{
		Name:     name,
		Config:   cfg,
		Replicas: 4,
		Router:   router,
		Classes:  apiClasses(),
		Trace:    trace,
	}
}

func TestMultiClassTracePublic(t *testing.T) {
	trace, err := MultiClassTrace(apiClasses(), 50, Ramp{From: 1, To: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	classes := map[string]int{}
	for _, r := range trace {
		classes[r.Class]++
	}
	if classes["chat"] == 0 || classes["api"] == 0 {
		t.Fatalf("class mix %v", classes)
	}
	if _, err := MultiClassTrace([]TrafficClass{{Name: "x", Dist: "bogus", RatePerSec: 1}}, 5, Ramp{}, 1); err == nil {
		t.Fatal("bad dist must fail")
	}
}

func TestClusterScenarioRun(t *testing.T) {
	sc := apiClusterScenario(t, "rr", RouterRoundRobin)
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replicas != 4 || rep.Router != "round-robin" || rep.Admission != "all" {
		t.Fatalf("report header %+v", rep)
	}
	if rep.Requests != 40 || rep.Admitted != 40 || rep.Rejected != 0 {
		t.Fatalf("counts %+v", rep)
	}
	if len(rep.Classes) != 2 || rep.Class("chat") == nil || rep.Class("api") == nil {
		t.Fatalf("classes %+v", rep.Classes)
	}
	if rep.Class("chat").TTFT.P99Sec <= 0 {
		t.Fatalf("chat P99 TTFT missing: %+v", rep.Class("chat"))
	}
	if rep.GoodputTPS <= 0 || rep.GoodputTPS > rep.ThroughputTPS {
		t.Fatalf("goodput %v vs throughput %v", rep.GoodputTPS, rep.ThroughputTPS)
	}
	if len(rep.PerReplica) != 4 {
		t.Fatalf("per-replica %+v", rep.PerReplica)
	}
	var buf bytes.Buffer
	if err := rep.WriteClassTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Fatalf("class TSV lines %d:\n%s", lines, buf.String())
	}
}

func TestClusterScenarioValidate(t *testing.T) {
	good := apiClusterScenario(t, "v", RouterRoundRobin)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*ClusterScenario){
		func(sc *ClusterScenario) { sc.Replicas = 0 },
		func(sc *ClusterScenario) { sc.Router = RouterPolicy(99) },
		func(sc *ClusterScenario) { sc.Admission = AdmissionPolicy(99) },
		func(sc *ClusterScenario) { sc.Trace = nil },
		func(sc *ClusterScenario) { sc.Classes = []TrafficClass{{Name: "x", Dist: "bogus", RatePerSec: 1}} },
		func(sc *ClusterScenario) {
			// Duplicate names would silently collapse into one SLO entry.
			sc.Classes = []TrafficClass{
				{Name: "x", Dist: "alpaca", RatePerSec: 1},
				{Name: "x", Dist: "alpaca", RatePerSec: 2},
			}
		},
		func(sc *ClusterScenario) { sc.Config.Model = "bogus" },
		func(sc *ClusterScenario) { sc.Autoscaler = AutoscalePolicy(99) },
		func(sc *ClusterScenario) { sc.Autoscaler = ScaleQueueDepth }, // no ScaleTick
		func(sc *ClusterScenario) {
			// Policy parameters are validated through the registry.
			sc.Autoscaler = ScaleSLO
			sc.ScaleTick = time.Second
			sc.ScaleSLOTarget = 1.5
		},
		func(sc *ClusterScenario) { sc.MinReplicas = -1 },
		func(sc *ClusterScenario) { sc.MinReplicas = 3; sc.MaxReplicas = 2 },
		func(sc *ClusterScenario) { sc.MaxReplicas = 2 }, // 4 initial replicas above the cap
		func(sc *ClusterScenario) { sc.ProvisionDelay = -time.Second },
		func(sc *ClusterScenario) {
			sc.FleetEvents = []FleetEvent{{At: time.Second, Kind: FleetScale, Replicas: 0}}
		},
	}
	for i, mutate := range cases {
		sc := apiClusterScenario(t, "v", RouterRoundRobin)
		mutate(&sc)
		err := sc.Validate()
		if err == nil {
			t.Fatalf("case %d must fail validation", i)
		}
		if _, ok := AsConfigError(err); !ok {
			t.Fatalf("case %d: want *ConfigError, got %T %v", i, err, err)
		}
	}
	// Admission limits are enforced at build time.
	sc := apiClusterScenario(t, "v", RouterRoundRobin)
	sc.Admission = AdmitQueueCap
	if _, err := sc.Run(); err == nil {
		t.Fatal("queue-cap without AdmissionLimit must fail")
	}
}

func TestParseScaleSchedule(t *testing.T) {
	plan, err := ParseScaleSchedule("0:2, 60:8 ,120.5:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []ScalePoint{
		{At: 0, Replicas: 2},
		{At: time.Minute, Replicas: 8},
		{At: 120*time.Second + 500*time.Millisecond, Replicas: 3},
	}
	if !reflect.DeepEqual(plan, want) {
		t.Fatalf("plan %+v, want %+v", plan, want)
	}
	// 1e7 seconds overflows the picosecond simtime range — a lax
	// nanosecond bound would let it wrap negative internally.
	for _, spec := range []string{"", "60", "60:0", "60:-1", "-1:2", "NaN:2", "+Inf:2", "x:2", "60:x", "10000000:2"} {
		if _, err := ParseScaleSchedule(spec); err == nil {
			t.Errorf("spec %q must fail", spec)
		}
	}
	// A parsed plan drives a scheduled scenario through validation.
	sc := apiClusterScenario(t, "sched", RouterRoundRobin).
		WithAutoscaler(ScaleScheduled, time.Second, 2, 8)
	sc.ScaleSchedule = plan
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterOnIteration pins that the per-replica progress hook — the
// CLI's -progress flag — fires in cluster mode too.
func TestClusterOnIteration(t *testing.T) {
	sc := apiClusterScenario(t, "hook", RouterRoundRobin)
	iterations := 0
	sc.Config.OnIteration = func(Iteration) { iterations++ }
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if iterations != rep.TotalIterations() {
		t.Fatalf("hook saw %d iterations, report counts %d", iterations, rep.TotalIterations())
	}
}

// TestClusterDeterministicAcrossSweeps is the acceptance pin: the same
// seed produces a bit-identical cluster report across two runs and
// across sequential-vs-parallel Sweep execution.
func TestClusterDeterministicAcrossSweeps(t *testing.T) {
	autoscaled := apiClusterScenario(t, "autoscaled", RouterLeastLoaded).
		WithAutoscaler(ScaleQueueDepth, 200*time.Millisecond, 2, 6)
	autoscaled.Replicas = 2
	autoscaled.ScaleQueueTarget = 3
	autoscaled.ProvisionDelay = 300 * time.Millisecond
	autoscaled.FleetEvents = []FleetEvent{
		{At: time.Second, Kind: FleetFail, Replica: 1},
	}
	scenarios := []ClusterScenario{
		apiClusterScenario(t, "round-robin", RouterRoundRobin),
		apiClusterScenario(t, "least-loaded", RouterLeastLoaded),
		apiClusterScenario(t, "affinity", RouterAffinity),
		autoscaled,
	}

	render := func(rep *ClusterReport) string {
		var buf bytes.Buffer
		if err := rep.WriteClassTSV(&buf); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteRequestsTSV(&buf); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteReplicaTSV(&buf); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteFleetTSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	runSweep := func(workers int) []string {
		sw := &Sweep{ClusterScenarios: scenarios, Workers: workers}
		rep, err := sw.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(rep.Results))
		for i, res := range rep.Results {
			if res.Cluster == nil {
				t.Fatalf("result %d missing cluster report", i)
			}
			out[i] = render(res.Cluster)
		}
		return out
	}

	sequential := runSweep(1)
	parallel := runSweep(4)
	repeat := runSweep(1)

	if !reflect.DeepEqual(sequential, repeat) {
		t.Fatal("same seed must produce bit-identical reports across runs")
	}
	if !reflect.DeepEqual(sequential, parallel) {
		t.Fatal("parallel sweep must produce bit-identical reports to sequential")
	}
	// Distinct routers must actually exercise distinct placements.
	if sequential[0] == sequential[1] {
		t.Fatal("round-robin and least-loaded produced identical reports; routing is inert")
	}
}

func TestSweepMixedScenarioKinds(t *testing.T) {
	trace, err := MultiClassTrace(apiClasses(), 20, Ramp{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Model = "gpt2"
	cfg.NPUs = 2
	cfg.Parallelism = ParallelismTensor

	sw := NewSweep(NewScenario("single", cfg, trace)).
		AddCluster(apiClusterScenario(t, "cluster", RouterLeastLoaded))
	rep, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("results %d", len(rep.Results))
	}
	if rep.Results[0].Report == nil || rep.Results[0].Cluster != nil {
		t.Fatalf("first row must be single-instance: %+v", rep.Results[0])
	}
	if rep.Results[1].Cluster == nil || rep.Results[1].Report != nil {
		t.Fatalf("second row must be cluster: %+v", rep.Results[1])
	}
	if best := rep.BestCluster(func(r *ClusterReport) float64 { return r.GoodputTPS }); best == nil ||
		best.Name != "cluster" {
		t.Fatalf("best cluster %+v", best)
	}

	var buf bytes.Buffer
	if err := rep.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("sweep TSV rows:\n%s", buf.String())
	}
	if !strings.Contains(lines[0], "goodput_tps") || !strings.Contains(lines[0], "p99_latency_s") {
		t.Fatalf("sweep TSV header missing cluster columns: %q", lines[0])
	}
	if !strings.Contains(lines[2], "4x(2-npu tensor)") {
		t.Fatalf("cluster row topology: %q", lines[2])
	}
}

// TestSweepEngineCachesPerScenario: a parallel Sweep of two identical
// astra cluster scenarios gives each scenario its own engine result
// cache, shared by that scenario's replicas only, and each result still
// equals a standalone run.
func TestSweepEngineCachesPerScenario(t *testing.T) {
	var mu sync.Mutex
	caches := map[string]map[*engine.Cache]bool{}
	replicaBuilt = func(name string, s *core.Simulator) {
		mu.Lock()
		defer mu.Unlock()
		if caches[name] == nil {
			caches[name] = map[*engine.Cache]bool{}
		}
		caches[name][s.NPUStack().Cache()] = true
	}
	t.Cleanup(func() { replicaBuilt = nil })

	sw := &Sweep{
		ClusterScenarios: []ClusterScenario{
			apiClusterScenario(t, "a", RouterLeastLoaded),
			apiClusterScenario(t, "b", RouterLeastLoaded),
		},
		Workers: 2,
	}
	rep, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if len(caches["a"]) != 1 || len(caches["b"]) != 1 {
		t.Fatalf("want one NPU cache per scenario, got %d and %d", len(caches["a"]), len(caches["b"]))
	}
	for c := range caches["a"] {
		if caches["b"][c] {
			t.Fatal("an engine cache crossed sweep scenarios")
		}
	}

	replicaBuilt = nil
	alone, err := apiClusterScenario(t, "a", RouterLeastLoaded).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results {
		if !reflect.DeepEqual(res.Cluster, alone) {
			t.Errorf("sweep scenario %s differs from a standalone run", res.Name)
		}
	}
}
