package llmservingsim_test

import (
	"testing"
	"time"

	sim "repro"
)

// nopStream is an empty RequestStream whose %v rendering is stable, so
// an error naming it can be pinned exactly.
type nopStream struct{}

func (nopStream) Next() (sim.Request, bool) { return sim.Request{}, false }

// TestClusterScenarioErrorStrings pins every cluster-scenario rule's
// ConfigError: the field it names and the exact message. These are the
// only checks of those rules; the internal cluster builder trusts a
// validated scenario, so a rule missing here is a rule nobody checks.
func TestClusterScenarioErrorStrings(t *testing.T) {
	trace, err := sim.MultiClassTrace(disaggClasses(), 8, sim.Ramp{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	unified := func() sim.ClusterScenario {
		return sim.ClusterScenario{
			Name:     "errors",
			Config:   disaggConfig(),
			Replicas: 2,
			Classes:  disaggClasses(),
			Trace:    trace,
		}
	}
	split := func() sim.ClusterScenario { return unified().WithDisaggregation(2, 1) }
	cases := []struct {
		name  string
		sc    func() sim.ClusterScenario
		field string
		msg   string
	}{
		{"replicas below one", func() sim.ClusterScenario {
			sc := unified()
			sc.Replicas = 0
			return sc
		}, "Replicas", "llmservingsim: config Replicas=0: must be >= 1"},
		{"fleet spec count", func() sim.ClusterScenario {
			sc := unified()
			sc.Fleet = []sim.ReplicaSpec{{Count: 0}}
			return sc
		}, "Fleet", "llmservingsim: config Fleet=0: replica count must be >= 1"},
		{"fleet total", func() sim.ClusterScenario {
			sc := unified()
			sc.Replicas = 0
			sc.Fleet = []sim.ReplicaSpec{{Count: sim.MaxFleetReplicas}, {Count: 1}}
			return sc
		}, "Fleet", "llmservingsim: config Fleet=1048577: fleet total exceeds the 1048576 replica maximum"},
		{"fleet total mismatch", func() sim.ClusterScenario {
			sc := unified()
			sc.Fleet = []sim.ReplicaSpec{{Count: 3}}
			return sc
		}, "Replicas", "llmservingsim: config Replicas=2: does not match the fleet's 3 replicas (leave 0 to derive)"},
		{"router", func() sim.ClusterScenario {
			sc := unified()
			sc.Router = sim.RouterPolicy(99)
			return sc
		}, "Router", "llmservingsim: config Router=RouterPolicy(99): unknown router policy"},
		{"decode router", func() sim.ClusterScenario {
			sc := unified()
			sc.DecodeRouter = sim.RouterPolicy(99)
			return sc
		}, "DecodeRouter", "llmservingsim: config DecodeRouter=RouterPolicy(99): unknown router policy"},
		{"admission", func() sim.ClusterScenario {
			sc := unified()
			sc.Admission = sim.AdmissionPolicy(99)
			return sc
		}, "Admission", "llmservingsim: config Admission=AdmissionPolicy(99): unknown admission policy"},
		{"pool bounds on a unified fleet", func() sim.ClusterScenario {
			sc := unified()
			sc.DecodeMaxReplicas = 3
			return sc
		}, "PrefillMinReplicas", "llmservingsim: config PrefillMinReplicas=0: per-pool replica bounds need a disaggregated fleet (specs with #prefill/#decode roles)"},
		{"unified mixed with pools", func() sim.ClusterScenario {
			sc := split()
			sc.Fleet = append(sc.Fleet, sim.ReplicaSpec{Count: 1, Model: "gpt2"})
			sc.Replicas = 0
			return sc
		}, "Fleet", "llmservingsim: config Fleet=1xgpt2: a disaggregated fleet cannot mix unified replicas with prefill/decode pools"},
		{"empty decode pool", func() sim.ClusterScenario {
			sc := split()
			sc.Fleet[1].Role = sim.RolePrefill
			return sc
		}, "Fleet", "llmservingsim: config Fleet=2x#prefill,1x#prefill: a disaggregated fleet needs at least one prefill and one decode replica"},
		{"skip initiation on a split fleet", func() sim.ClusterScenario {
			sc := split()
			sc.Config.SkipInitiation = true
			return sc
		}, "Config.SkipInitiation", "llmservingsim: config Config.SkipInitiation=true: incompatible with disaggregation (decode replicas are built generation-only internally)"},
		{"scale event on a split fleet", func() sim.ClusterScenario {
			sc := split()
			sc.FleetEvents = []sim.FleetEvent{{At: time.Second, Kind: sim.FleetScale, Replicas: 4}}
			return sc
		}, "FleetEvents", "llmservingsim: config FleetEvents=scale@1:4: scale events are ambiguous on a disaggregated fleet (use the per-pool autoscaler)"},
		{"negative prefill bound", func() sim.ClusterScenario {
			sc := split()
			sc.PrefillMinReplicas = -1
			return sc
		}, "PrefillMaxReplicas", "llmservingsim: config PrefillMaxReplicas=-1: pool replica bounds must not be negative"},
		{"negative decode bound", func() sim.ClusterScenario {
			sc := split()
			sc.DecodeMaxReplicas = -1
			return sc
		}, "DecodeMaxReplicas", "llmservingsim: config DecodeMaxReplicas=0: pool replica bounds must not be negative"},
		{"decode pool max below min", func() sim.ClusterScenario {
			sc := split()
			sc.DecodeMinReplicas = 4
			sc.DecodeMaxReplicas = 2
			return sc
		}, "DecodeMaxReplicas", "llmservingsim: config DecodeMaxReplicas=2: pool max below min 4"},
		{"initial prefill pool above its max", func() sim.ClusterScenario {
			sc := split()
			sc.PrefillMaxReplicas = 1
			return sc
		}, "PrefillMaxReplicas", "llmservingsim: config PrefillMaxReplicas=2: initial pool size exceeds pool max 1"},
		{"no trace", func() sim.ClusterScenario {
			sc := unified()
			sc.Trace = nil
			return sc
		}, "Trace", "llmservingsim: config Trace=0: cluster scenario needs a trace or a trace stream"},
		{"trace and stream", func() sim.ClusterScenario {
			sc := unified()
			sc.TraceStream = nopStream{}
			return sc
		}, "TraceStream", "llmservingsim: config TraceStream={}: set either Trace or TraceStream, not both"},
		{"traffic class", func() sim.ClusterScenario {
			sc := unified()
			sc.Classes = []sim.TrafficClass{{Name: "x", Dist: "bogus", RatePerSec: 1}}
			return sc
		}, "Classes", `llmservingsim: config Classes=1: workload: unknown distribution "bogus" (want sharegpt|alpaca|fixed-IN-OUT)`},
		{"autoscaler", func() sim.ClusterScenario {
			sc := unified()
			sc.Autoscaler = sim.AutoscalePolicy(99)
			return sc
		}, "Autoscaler", "llmservingsim: config Autoscaler=AutoscalePolicy(99): unknown autoscale policy"},
		{"negative min replicas", func() sim.ClusterScenario {
			sc := unified()
			sc.MinReplicas = -1
			return sc
		}, "MinReplicas", "llmservingsim: config MinReplicas=-1: replica bounds must not be negative"},
		{"negative max replicas", func() sim.ClusterScenario {
			sc := unified()
			sc.MaxReplicas = -1
			return sc
		}, "MinReplicas", "llmservingsim: config MinReplicas=0: replica bounds must not be negative"},
		{"max replicas above the fleet maximum", func() sim.ClusterScenario {
			sc := unified()
			sc.MaxReplicas = sim.MaxFleetReplicas + 1
			return sc
		}, "MaxReplicas", "llmservingsim: config MaxReplicas=1048577: exceeds the 1048576 replica maximum"},
		{"negative provision delay", func() sim.ClusterScenario {
			sc := unified()
			sc.ProvisionDelay = -time.Second
			return sc
		}, "ProvisionDelay", "llmservingsim: config ProvisionDelay=-1s: must not be negative"},
		{"max replicas below min", func() sim.ClusterScenario {
			sc := unified()
			sc.MinReplicas = 3
			sc.MaxReplicas = 2
			return sc
		}, "MaxReplicas", "llmservingsim: config MaxReplicas=2: below MinReplicas 3"},
		{"initial fleet above max replicas", func() sim.ClusterScenario {
			sc := unified()
			sc.MaxReplicas = 1
			return sc
		}, "Replicas", "llmservingsim: config Replicas=2: initial fleet exceeds MaxReplicas 1"},
		{"initial split fleet above max replicas", func() sim.ClusterScenario {
			sc := split()
			sc.MaxReplicas = 2
			return sc
		}, "Replicas", "llmservingsim: config Replicas=3: initial fleet exceeds MaxReplicas 2"},
		{"autoscaler without a tick", func() sim.ClusterScenario {
			sc := unified()
			sc.Autoscaler = sim.ScaleQueueDepth
			sc.ScaleQueueTarget = 4
			return sc
		}, "ScaleTick", "llmservingsim: config ScaleTick=0s: autoscaling needs a positive evaluation tick"},
		{"split-fleet autoscaler without a tick", func() sim.ClusterScenario {
			sc := split()
			sc.Autoscaler = sim.ScaleSLO
			sc.ScaleSLOTarget = 0.9
			return sc
		}, "ScaleTick", "llmservingsim: config ScaleTick=0s: autoscaling needs a positive evaluation tick"},
		{"autoscaler parameters", func() sim.ClusterScenario {
			sc := unified()
			sc.Autoscaler = sim.ScaleSLO
			sc.ScaleTick = time.Second
			sc.ScaleSLOTarget = 1.5
			return sc
		}, "Autoscaler", "llmservingsim: config Autoscaler=slo-target: cluster: slo-target autoscaler needs an attainment target in (0,1], got 1.5"},
		{"fleet event target size", func() sim.ClusterScenario {
			sc := unified()
			sc.FleetEvents = []sim.FleetEvent{{At: time.Second, Kind: sim.FleetScale, Replicas: 0}}
			return sc
		}, "FleetEvents", "llmservingsim: config FleetEvents=1: llmservingsim: fleet event 1: workload: fleet event scale: target replicas must be >= 1, got 0"},
		{"fleet event replica index", func() sim.ClusterScenario {
			sc := unified()
			sc.FleetEvents = []sim.FleetEvent{{At: time.Second, Kind: sim.FleetFail, Replica: -1}}
			return sc
		}, "FleetEvents", "llmservingsim: config FleetEvents=1: llmservingsim: fleet event 1: workload: fleet event fail: negative replica index -1"},
		{"fleet event time", func() sim.ClusterScenario {
			sc := unified()
			sc.FleetEvents = []sim.FleetEvent{{At: -time.Second, Kind: sim.FleetDrain}}
			return sc
		}, "FleetEvents", "llmservingsim: config FleetEvents=1: llmservingsim: fleet event 1: workload: fleet event drain: negative time -1s"},
	}
	for _, tc := range cases {
		err := tc.sc().Validate()
		ce, ok := sim.AsConfigError(err)
		if !ok {
			t.Errorf("%s: want a *ConfigError, got %T %v", tc.name, err, err)
			continue
		}
		if ce.Field != tc.field || err.Error() != tc.msg {
			t.Errorf("%s:\n got field %q: %s\nwant field %q: %s", tc.name, ce.Field, err, tc.field, tc.msg)
		}
	}
	for name, sc := range map[string]sim.ClusterScenario{"unified": unified(), "split": split()} {
		if err := sc.Validate(); err != nil {
			t.Errorf("%s base scenario rejected: %v", name, err)
		}
	}
}
