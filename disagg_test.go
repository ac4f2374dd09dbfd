package llmservingsim_test

// Disaggregated-serving suite: the prefill/decode split end to end.
// TestGoldenDisagg pins a fixed-seed disaggregated run — KV-handoff
// totals, per-pool placement, and the per-stage regret split — and
// proves the deployment's payoff: on a prefill-heavy workload the
// disaggregated fleet beats a unified fleet of the same size on p95
// TTFT at near-equal capacity cost. The remaining tests cover the
// failure paths: a prefill replica dying mid-run (stage-1 requeues), a
// decode replica dying (handoffs re-priced to survivors), and the
// decode pool vanishing entirely (no-replica rejects, no hangs).

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"
	"time"

	sim "repro"
)

// disaggClasses is a prefill-heavy mix (long prompts, short outputs)
// whose TTFT is the contended metric: under static batching, unified
// replicas make new prompts wait for in-flight decode batches, which is
// exactly what a dedicated prefill pool avoids.
func disaggClasses() []sim.TrafficClass {
	return []sim.TrafficClass{
		{Name: "doc", Dist: "fixed-512-128", RatePerSec: 160,
			TTFT: 100 * time.Millisecond, TPOT: 20 * time.Millisecond},
		{Name: "snip", Dist: "fixed-384-48", RatePerSec: 80,
			TTFT: 60 * time.Millisecond, TPOT: 10 * time.Millisecond},
	}
}

func disaggTrace(t testing.TB) []sim.Request {
	t.Helper()
	reqs, err := sim.MultiClassTrace(disaggClasses(), 96, sim.Ramp{From: 0.8, To: 1.6}, 20240614)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// disaggConfig is a roofline-priced 2-NPU gpt2 replica under static
// batching — the regime where decode iterations block prompt admission
// on a unified replica.
func disaggConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Model = "gpt2"
	cfg.NPUs = 2
	cfg.Parallelism = sim.ParallelismTensor
	cfg.Scheduling = sim.SchedStatic
	cfg.KVManage = sim.KVPaged
	cfg.PerfModel = sim.PerfModelRoofline
	return cfg
}

func disaggScenario(t testing.TB, name string) sim.ClusterScenario {
	t.Helper()
	fleet, err := sim.ParseFleet("2xgpt2#prefill,2xgpt2#decode")
	if err != nil {
		t.Fatal(err)
	}
	return sim.ClusterScenario{
		Name:         name,
		Config:       disaggConfig(),
		DecodeRouter: sim.RouterLeastLoaded,
		Classes:      disaggClasses(),
		Trace:        disaggTrace(t),
	}.WithReplicaSpecs(fleet...).WithTelemetry(sim.NewTelemetry(sim.TelemetryConfig{Detail: sim.TraceFull}))
}

// disaggFingerprint extends the cluster fingerprint with the
// disaggregation dimensions: handoff totals, per-pool slots and
// placements, the per-stage regret split, and the workload's p95 TTFT.
func disaggFingerprint(r *sim.ClusterReport) string {
	pools := ""
	for _, p := range r.Pools {
		pools += fmt.Sprintf("|%s:%d/%d", p.Role, p.Slots, p.Requests)
	}
	rg := r.Regret
	return fmt.Sprintf("%s handoffs=%d handoff_b=%d link_s=%s pools=%s s1=%d/%d s2=%d/%d requeues=%d fallbacks=%d ttft95=%s",
		clusterFingerprint(r), r.HandoffCount, r.HandoffBytes, g17(r.HandoffLinkSeconds),
		pools, rg.Stage1Decisions, rg.Stage1RegretTokens, rg.Stage2Decisions, rg.Stage2RegretTokens,
		rg.Requeues, rg.RateFallbacks, g17(disaggP95TTFT(r)))
}

// disaggP95TTFT averages p95 TTFT over the traffic classes — the
// latency axis disaggregation optimises.
func disaggP95TTFT(r *sim.ClusterReport) float64 {
	sum := 0.0
	for _, cs := range r.Classes {
		sum += cs.TTFT.P95Sec
	}
	return sum / float64(len(r.Classes))
}

// TestGoldenDisagg pins the disaggregated run bit-for-bit — standalone
// and under parallel Sweep execution — and asserts the payoff against a
// unified fleet of the same four slots: better p95 TTFT at near-equal
// cost proxy.
func TestGoldenDisagg(t *testing.T) {
	const want = "iters=2696 admitted=96 rejected=0 end_ps=405514933474 evict=0 reload=0 tput=24778.372312752916 good=24778.372312752916 p99=0.110956697815 handoffs=96 handoff_b=1679818752 link_s=0.013133183999999999 pools=|prefill:2/96|decode:2/96 s1=96/0 s2=96/0 requeues=0 fallbacks=0 ttft95=0.0030484378515"

	rep, err := disaggScenario(t, "disagg").Run()
	if err != nil {
		t.Fatal(err)
	}
	got := disaggFingerprint(rep)
	if os.Getenv("GOLDEN_PRINT") != "" {
		t.Logf("golden: disagg: %q,", got)
	} else if got != want {
		t.Errorf("behaviour drifted from pinned golden\n got %s\nwant %s", got, want)
	}

	// Structural invariants of the two-stage pipeline: every admitted
	// request is placed once on each pool, and every decode placement
	// (initial or requeued) prices exactly one handoff.
	rg := rep.Regret
	if rg.Stage1Decisions != rep.Admitted || rg.Stage2Decisions != rep.Admitted {
		t.Errorf("stage decisions %d/%d, want %d each (one per admitted request)",
			rg.Stage1Decisions, rg.Stage2Decisions, rep.Admitted)
	}
	if rep.HandoffCount != rg.Stage2Decisions {
		t.Errorf("handoffs %d != stage-2 placements %d", rep.HandoffCount, rg.Stage2Decisions)
	}
	if len(rep.Pools) != 2 || rep.Pools[0].Role != "prefill" || rep.Pools[1].Role != "decode" {
		t.Fatalf("pools %+v, want prefill+decode", rep.Pools)
	}

	// The unified comparator: same trace, same four slots, colocated.
	uni := sim.ClusterScenario{
		Name:     "unified",
		Config:   disaggConfig(),
		Replicas: 4,
		Router:   sim.RouterLeastLoaded,
		Classes:  disaggClasses(),
		Trace:    disaggTrace(t),
	}
	uniRep, err := uni.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d, u := disaggP95TTFT(rep), disaggP95TTFT(uniRep); d >= u {
		t.Errorf("disaggregated p95 TTFT %.4fs does not beat unified %.4fs", d, u)
	}
	if ratio := rep.CostProxy / uniRep.CostProxy; ratio < 0.7 || ratio > 1.4 {
		t.Errorf("cost proxy ratio %.3f (disagg %.2f vs unified %.2f) is not near-equal",
			ratio, rep.CostProxy, uniRep.CostProxy)
	}

	// The same scenario inside a parallel Sweep (alongside a copy, so
	// workers genuinely interleave) must reproduce the fingerprint
	// bit-for-bit.
	sw := &sim.Sweep{
		ClusterScenarios: []sim.ClusterScenario{disaggScenario(t, "disagg-a"), disaggScenario(t, "disagg-b")},
		Workers:          2,
	}
	swRep, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := swRep.Err(); err != nil {
		t.Fatal(err)
	}
	for i, res := range swRep.Results {
		if swGot := disaggFingerprint(res.Cluster); swGot != got {
			t.Errorf("sweep result %d diverged from the standalone run\n got %s\nwant %s", i, swGot, got)
		}
	}
}

// TestDisaggFailover kills one replica of each pool mid-run: the
// prefill casualty's backlog requeues as flagged stage-1 decisions, the
// decode casualty's in-flight generations requeue with their KV
// handoffs re-priced to the surviving decode replica — and the decision
// records account for every one of them.
func TestDisaggFailover(t *testing.T) {
	events, err := sim.ParseFleetEvents("fail@0.08:0,fail@0.16:2")
	if err != nil {
		t.Fatal(err)
	}
	sc := disaggScenario(t, "disagg-failover")
	sc.FleetEvents = events
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requeued == 0 {
		t.Fatal("failing one replica per pool mid-run requeued nothing; move the event times into the busy window")
	}
	rg := rep.Regret
	if rg.Requeues != rep.Requeued {
		t.Errorf("regret summary counts %d requeued routes, report says %d", rg.Requeues, rep.Requeued)
	}
	// Every decode placement prices a handoff — including re-priced
	// requeues off the failed decode replica, which push the handoff
	// count past one-per-admitted.
	if rep.HandoffCount != rg.Stage2Decisions {
		t.Errorf("handoffs %d != stage-2 placements %d", rep.HandoffCount, rg.Stage2Decisions)
	}
	if rep.HandoffCount <= rep.Admitted-rep.Rejected {
		t.Errorf("handoffs %d not above completed count %d: decode requeues were not re-priced",
			rep.HandoffCount, rep.Admitted-rep.Rejected)
	}
	// The decisions TSV marks each requeued route.
	var dec bytes.Buffer
	if err := sc.Telemetry.WriteDecisionsTSV(&dec); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(dec.String(), "requeue"); n != rep.Requeued {
		t.Errorf("decisions TSV marks %d requeued routes, report says %d", n, rep.Requeued)
	}
	// Nothing may be lost: every arrival either completed or was
	// rejected with a recorded reason.
	completed, rejected := 0, 0
	for _, cs := range rep.Classes {
		completed += cs.Completed
		rejected += cs.Rejected
	}
	if completed+rejected != rep.Requests {
		t.Errorf("%d completed + %d rejected != %d arrivals", completed, rejected, rep.Requests)
	}
}

// TestDisaggDecodePoolLost kills the only decode replica: requests
// already handed off die as failure rejects, requests still in prefill
// (and every later arrival) are rejected no-replica — the cluster
// drains cleanly instead of hanging on an impossible handoff.
func TestDisaggDecodePoolLost(t *testing.T) {
	fleet, err := sim.ParseFleet("1xgpt2#prefill,1xgpt2#decode")
	if err != nil {
		t.Fatal(err)
	}
	events, err := sim.ParseFleetEvents("fail@0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.ClusterScenario{
		Name:        "disagg-decode-lost",
		Config:      disaggConfig(),
		Classes:     disaggClasses(),
		Trace:       disaggTrace(t),
		FleetEvents: events,
	}.WithReplicaSpecs(fleet...)
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	noReplica, rejected, completed := 0, 0, 0
	for _, cs := range rep.Classes {
		noReplica += cs.RejectedNoReplica
		rejected += cs.Rejected
		completed += cs.Completed
	}
	if noReplica == 0 {
		t.Error("losing the whole decode pool produced no no-replica rejects")
	}
	if completed+rejected != rep.Requests {
		t.Errorf("%d completed + %d rejected != %d arrivals", completed, rejected, rep.Requests)
	}
	if completed == 0 {
		t.Error("requests handed off before the failure should have completed")
	}
}

// disaggAutoscaleScenario is a 1+1 disaggregated fleet under an
// slo-target policy whose targets no replica can meet, so both pools
// grow until their own clamps (prefill 3, decode 2) hold them.
func disaggAutoscaleScenario(t testing.TB) sim.ClusterScenario {
	t.Helper()
	fleet, err := sim.ParseFleet("1xgpt2#prefill,1xgpt2#decode")
	if err != nil {
		t.Fatal(err)
	}
	classes := []sim.TrafficClass{
		{Name: "doc", Dist: "fixed-512-128", RatePerSec: 240,
			TTFT: 2 * time.Millisecond, TPOT: 500 * time.Microsecond},
	}
	trace, err := sim.MultiClassTrace(classes, 96, sim.Ramp{}, 20240614)
	if err != nil {
		t.Fatal(err)
	}
	return sim.ClusterScenario{
		Name:               "disagg-autoscale",
		Config:             disaggConfig(),
		Classes:            classes,
		Trace:              trace,
		Autoscaler:         sim.ScaleSLO,
		ScaleTick:          50 * time.Millisecond,
		ScaleSLOTarget:     0.95,
		ScaleSLOHigh:       1,
		PrefillMaxReplicas: 3,
		DecodeMaxReplicas:  2,
		ProvisionDelay:     20 * time.Millisecond,
	}.WithReplicaSpecs(fleet...)
}

// TestDisaggAutoscale drives per-pool scaling: an slo-target policy
// with unattainable targets must grow both pools independently within
// their own clamps, and the fleet timeline must attribute the growth to
// the right pool.
func TestDisaggAutoscale(t *testing.T) {
	rep, err := disaggAutoscaleScenario(t).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scaler != "slo-target" {
		t.Fatalf("scaler %q, want slo-target", rep.Scaler)
	}
	maxPrefill, maxDecode := 0, 0
	for _, p := range rep.FleetTimeline {
		maxPrefill = max(maxPrefill, p.ActivePrefill)
		maxDecode = max(maxDecode, p.ActiveDecode)
	}
	if maxPrefill <= 1 {
		t.Errorf("prefill pool never grew past %d active replicas", maxPrefill)
	}
	if maxDecode != 2 {
		t.Errorf("decode pool peaked at %d active replicas, want its clamp 2", maxDecode)
	}
	if maxPrefill > 3 {
		t.Errorf("prefill pool exceeded its clamp: %d active replicas", maxPrefill)
	}
	if rep.Pools[0].Slots <= 1 || rep.Pools[1].Slots <= 1 {
		t.Errorf("pool slots %d/%d, want both pools to have scaled up",
			rep.Pools[0].Slots, rep.Pools[1].Slots)
	}
}

// TestGoldenDisaggAutoscale pins per-pool autoscaling bit-for-bit:
// every fleet timeline point with its pool split, the pool rollup, the
// capacity cost, the number of scale decisions each pool's scaler took,
// and an FNV-1a hash of the decisions TSV (which carries every
// per-pool policy name, desired and clamped size).
func TestGoldenDisaggAutoscale(t *testing.T) {
	const want = "scaler=slo-target replica_s=2.0765008101850002 cost=2.0765008101850002 pool=prefill:3/96/1.25215843557/1.25215843557/0 pool=decode:3/96/0.82434237461499993/0.82434237461499993/4381.8158092115782 fleet=|0:2/0/0/1/1|0.050000000000000003:2/1/0/1/1|0.070000000000000007:3/0/0/2/1|0.10000000000000001:3/2/0/2/1|0.12:5/0/0/3/2|0.20000000000000001:4/0/1/3/1|0.23957008423500001:4/0/0/3/1|0.25:4/1/0/3/1|0.27000000000000002:5/0/0/3/2 scale_prefill=9 scale_decode=9 dec_fnv=bd48d5cb59c58a0e"

	tel := sim.NewTelemetry(sim.TelemetryConfig{Detail: sim.TraceDecisions})
	rep, err := disaggAutoscaleScenario(t).WithTelemetry(tel).Run()
	if err != nil {
		t.Fatal(err)
	}
	var dec bytes.Buffer
	if err := tel.WriteDecisionsTSV(&dec); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(dec.Bytes())
	var b strings.Builder
	fmt.Fprintf(&b, "scaler=%s replica_s=%s cost=%s", rep.Scaler, g17(rep.ReplicaSeconds), g17(rep.CostProxy))
	for _, p := range rep.Pools {
		fmt.Fprintf(&b, " pool=%s:%d/%d/%s/%s/%s", p.Role, p.Slots, p.Requests,
			g17(p.ReplicaSeconds), g17(p.CostProxy), g17(p.GoodputTPS))
	}
	b.WriteString(" fleet=")
	for _, p := range rep.FleetTimeline {
		fmt.Fprintf(&b, "|%s:%d/%d/%d/%d/%d", g17(p.TimeSec), p.Active, p.Provisioning, p.Draining,
			p.ActivePrefill, p.ActiveDecode)
	}
	fmt.Fprintf(&b, " scale_prefill=%d scale_decode=%d dec_fnv=%016x",
		strings.Count(dec.String(), "slo-target/prefill"), strings.Count(dec.String(), "slo-target/decode"), h.Sum64())
	got := b.String()
	if os.Getenv("GOLDEN_PRINT") != "" {
		t.Logf("golden: disagg-autoscale: %q,", got)
	} else if got != want {
		t.Errorf("behaviour drifted from pinned golden\n got %s\nwant %s", got, want)
	}
}

// TestDisaggValidate pins the scenario-level guard rails.
func TestDisaggValidate(t *testing.T) {
	base := func() sim.ClusterScenario {
		return disaggScenario(t, "guard")
	}
	cases := map[string]func() sim.ClusterScenario{
		"mixed roles": func() sim.ClusterScenario {
			sc := base()
			sc.Fleet[0].Role = sim.RoleUnified
			return sc
		},
		"empty decode pool": func() sim.ClusterScenario {
			sc := base()
			sc.Fleet[1].Role = sim.RolePrefill
			return sc
		},
		"skip-initiation": func() sim.ClusterScenario {
			sc := base()
			sc.Config.SkipInitiation = true
			return sc
		},
		"scale event": func() sim.ClusterScenario {
			sc := base()
			sc.FleetEvents = []sim.FleetEvent{{At: time.Second, Kind: sim.FleetScale, Replicas: 6}}
			return sc
		},
		"pool bounds on unified fleet": func() sim.ClusterScenario {
			sc := base()
			sc.Fleet = nil
			sc.Replicas = 2
			sc.PrefillMinReplicas = 2
			return sc
		},
		"pool max below min": func() sim.ClusterScenario {
			sc := base()
			sc.DecodeMinReplicas = 4
			sc.DecodeMaxReplicas = 2
			return sc
		},
	}
	for name, mk := range cases {
		if err := mk().Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid disaggregated scenario", name)
		}
	}
	if err := base().Validate(); err != nil {
		t.Errorf("valid disaggregated scenario rejected: %v", err)
	}
}
