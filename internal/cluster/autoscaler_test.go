package cluster

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/simtime"
	"repro/internal/workload"
)

// TestAutoscalerPolicyTable pins each policy's decision function over a
// table of fleet views: the queue-depth ceiling division, the slo-target
// hysteresis band (including the no-flap hold inside it and the no-signal
// hold), and the scheduled step function.
func TestAutoscalerPolicyTable(t *testing.T) {
	mustScaler := func(name string, cfg AutoscalerConfig) Autoscaler {
		t.Helper()
		s, err := NewAutoscaler(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	queue := mustScaler(ScaleQueueDepth, AutoscalerConfig{QueueTarget: 8})
	slo := mustScaler(ScaleSLOTarget, AutoscalerConfig{AttainTarget: 0.90, AttainHigh: 0.99})
	sloDefault := mustScaler(ScaleSLOTarget, AutoscalerConfig{AttainTarget: 0.90})
	sched := mustScaler(ScaleScheduled, AutoscalerConfig{Schedule: []SchedulePoint{
		{Time: 10 * simtime.Time(simtime.Second), Replicas: 6},
		{Time: 30 * simtime.Time(simtime.Second), Replicas: 2},
	}})

	cases := []struct {
		name   string
		scaler Autoscaler
		view   FleetView
		want   int
	}{
		{"queue/empty", queue, FleetView{Active: 3}, 0},
		{"queue/exact", queue, FleetView{Active: 3, QueuedRequests: 24}, 3},
		{"queue/ceil", queue, FleetView{Active: 3, QueuedRequests: 25}, 4},
		{"queue/burst", queue, FleetView{Active: 1, QueuedRequests: 100}, 13},

		{"slo/below-target-scales-up", slo, FleetView{Active: 4, IntervalCompleted: 10, IntervalAttained: 8}, 5},
		{"slo/above-high-scales-down", slo, FleetView{Active: 4, IntervalCompleted: 10, IntervalAttained: 10}, 3},
		// The hysteresis pin: attainment inside [target, high] must not
		// flap the fleet in either direction.
		{"slo/in-band-holds", slo, FleetView{Active: 4, IntervalCompleted: 100, IntervalAttained: 95}, 4},
		{"slo/at-target-holds", slo, FleetView{Active: 4, IntervalCompleted: 10, IntervalAttained: 9}, 4},
		{"slo/no-completions-holds", slo, FleetView{Active: 4, Provisioning: 1}, 5},
		// With the default high bound of 1, perfect attainment must
		// still reach the scale-down arm, or the fleet only ratchets up.
		{"slo/default-high-scales-down", sloDefault, FleetView{Active: 6, IntervalCompleted: 100, IntervalAttained: 100}, 5},
		{"slo/default-high-holds-below", sloDefault, FleetView{Active: 6, IntervalCompleted: 100, IntervalAttained: 99}, 6},

		{"sched/before-first-holds", sched, FleetView{Time: 5 * simtime.Time(simtime.Second), Active: 3}, 3},
		{"sched/first-step", sched, FleetView{Time: 10 * simtime.Time(simtime.Second), Active: 3}, 6},
		{"sched/between-steps", sched, FleetView{Time: 29 * simtime.Time(simtime.Second), Active: 6}, 6},
		{"sched/last-step", sched, FleetView{Time: 300 * simtime.Time(simtime.Second), Active: 6}, 2},
	}
	for _, tc := range cases {
		if got := tc.scaler.Desired(tc.view); got != tc.want {
			t.Errorf("%s: Desired = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestAutoscalerRegistry(t *testing.T) {
	if _, err := NewAutoscaler("bogus", AutoscalerConfig{}); err == nil {
		t.Fatal("unknown autoscaler must fail")
	}
	if _, err := NewAutoscaler(ScaleQueueDepth, AutoscalerConfig{}); err == nil {
		t.Fatal("queue-depth without a target must fail")
	}
	if _, err := NewAutoscaler(ScaleSLOTarget, AutoscalerConfig{AttainTarget: 1.5}); err == nil {
		t.Fatal("attainment target above 1 must fail")
	}
	if _, err := NewAutoscaler(ScaleSLOTarget, AutoscalerConfig{AttainTarget: 0.95, AttainHigh: 0.5}); err == nil {
		t.Fatal("hysteresis bound below the target must fail")
	}
	if _, err := NewAutoscaler(ScaleScheduled, AutoscalerConfig{}); err == nil {
		t.Fatal("scheduled without a plan must fail")
	}
	if _, err := NewAutoscaler(ScaleScheduled, AutoscalerConfig{
		Schedule: []SchedulePoint{{Time: -1, Replicas: 2}},
	}); err == nil {
		t.Fatal("scheduled step at negative time must fail")
	}
	if got := Autoscalers(); len(got) < 3 {
		t.Fatalf("autoscalers %v", got)
	}
}

// autoscaledCluster builds a roofline-priced cluster with the given
// scaling setup over the shared test classes.
func autoscaledCluster(t testing.TB, cfg Config) *Cluster {
	t.Helper()
	cfg.NewReplica = backendReplicaFactory(t, "roofline")
	if cfg.Router == nil {
		r, err := NewRouter(RouterLeastLoad)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Router = r
	}
	cfg.Classes = testClasses()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAutoscaleGrowsAndClamps: a one-replica fleet under a burst with a
// tiny queue target must grow, but never beyond the pool's Max; once
// the queue drains, the fleet must shrink back to its Min (the clamp
// floor), never below.
func TestAutoscaleGrowsAndClamps(t *testing.T) {
	scaler, err := NewAutoscaler(ScaleQueueDepth, AutoscalerConfig{QueueTarget: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := autoscaledCluster(t, Config{
		Replicas:  1,
		Scaling:   map[Role]PoolScaling{RoleUnified: {Scaler: scaler, Min: 1, Max: 3}},
		ScaleTick: 100 * simtime.Millisecond,
	})
	rep, err := c.Run(testTrace(t, 60))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scaler != ScaleQueueDepth {
		t.Fatalf("report scaler %q", rep.Scaler)
	}
	peak := peakReplicas(rep)
	if peak != 3 {
		t.Fatalf("queue target 1 under burst load must peak at the max (3), got %d\ntimeline %+v", peak, rep.FleetTimeline)
	}
	for _, p := range rep.FleetTimeline {
		if p.Active+p.Provisioning < 1 {
			t.Fatalf("fleet dropped below the minimum: %+v", p)
		}
	}
	last := rep.FleetTimeline[len(rep.FleetTimeline)-1]
	if last.Active != 1 {
		t.Fatalf("fleet must shrink back to the minimum after the burst, ended at %+v", last)
	}
	if rep.Admitted != 60 || rep.Rejected != 0 {
		t.Fatalf("counts %+v", rep)
	}
	if rep.ReplicaSeconds <= 0 || rep.CostProxy <= 0 {
		t.Fatalf("replica-seconds %v cost %v", rep.ReplicaSeconds, rep.CostProxy)
	}
}

// TestDrainCompletesInFlight: a drain event mid-run must not lose work —
// every request completes, the drained replica retires, and requests
// that were backlogged on it migrate to the survivor.
func TestDrainCompletesInFlight(t *testing.T) {
	c := autoscaledCluster(t, Config{
		Replicas: 2,
		Events: []workload.FleetEvent{
			{Time: simtime.Time(simtime.Second), Kind: workload.EventDrain, Replica: 1},
		},
	})
	rep, err := c.Run(testTrace(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted != 40 || rep.Rejected != 0 {
		t.Fatalf("drain lost work: %+v", rep)
	}
	for _, rec := range rep.Records {
		if rec.Completed == 0 {
			t.Fatalf("request %d never completed: %+v", rec.ID, rec)
		}
	}
	if got := rep.PerReplica[1].State; got != "retired" {
		t.Fatalf("drained replica state %q, want retired", got)
	}
	if got := rep.PerReplica[0].State; got != "active" {
		t.Fatalf("surviving replica state %q, want active", got)
	}
	// The drained slot stops accruing capacity when it finishes, so it
	// must cost less than the survivor that served the whole run.
	if rep.PerReplica[1].ReplicaSeconds >= rep.PerReplica[0].ReplicaSeconds {
		t.Fatalf("drained replica accrued %+v vs survivor %+v",
			rep.PerReplica[1].ReplicaSeconds, rep.PerReplica[0].ReplicaSeconds)
	}
}

// TestFailureRequeueVsReject: the same failure either re-routes the dead
// replica's outstanding work (everything still completes) or rejects it
// (rejections recorded, counts add up) depending on the event mode.
func TestFailureRequeueVsReject(t *testing.T) {
	run := func(reject bool) *Report {
		c := autoscaledCluster(t, Config{
			Replicas: 2,
			Events: []workload.FleetEvent{
				{Time: simtime.Time(simtime.Second), Kind: workload.EventFail, Replica: 0, Reject: reject},
			},
		})
		rep, err := c.Run(testTrace(t, 40))
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.PerReplica[0].State; got != "failed" {
			t.Fatalf("failed replica state %q", got)
		}
		if rep.Admitted+rep.Rejected != rep.Requests {
			t.Fatalf("counts do not add up: %+v", rep)
		}
		return rep
	}

	requeued := run(false)
	if requeued.Requeued == 0 {
		t.Fatal("failing a loaded replica must requeue outstanding work")
	}
	if requeued.Rejected != 0 {
		t.Fatalf("requeue mode rejected %d", requeued.Rejected)
	}
	for _, rec := range requeued.Records {
		if rec.Completed == 0 {
			t.Fatalf("request %d never completed after requeue: %+v", rec.ID, rec)
		}
		if rec.Replica == 0 && rec.Arrival.After(simtime.Time(simtime.Second)) {
			t.Fatalf("request %d routed to the dead replica: %+v", rec.ID, rec)
		}
	}

	rejected := run(true)
	if rejected.Requeued != 0 {
		t.Fatalf("reject mode requeued %d", rejected.Requeued)
	}
	if rejected.Rejected == 0 {
		t.Fatal("failing a loaded replica in reject mode must reject outstanding work")
	}
	// Both modes lose the same outstanding set: what one requeues the
	// other rejects.
	if rejected.Rejected != requeued.Requeued {
		t.Fatalf("reject mode dropped %d, requeue mode re-routed %d — same failure, same outstanding set",
			rejected.Rejected, requeued.Requeued)
	}
}

// TestProvisioningDelay: scaled-up capacity must not serve before its
// cold start completes, and the timeline must show the provisioning
// interval.
func TestProvisioningDelay(t *testing.T) {
	const delay = 2 * simtime.Second
	c := autoscaledCluster(t, Config{
		Replicas:       1,
		Scaling:        map[Role]PoolScaling{RoleUnified: {Max: 2}},
		ProvisionDelay: delay,
		Events: []workload.FleetEvent{
			{Time: simtime.Time(simtime.Second), Kind: workload.EventScale, Replicas: 2},
		},
	})
	rep, err := c.Run(testTrace(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	sawProvisioning := false
	for _, p := range rep.FleetTimeline {
		if p.Provisioning > 0 {
			sawProvisioning = true
			if p.Time.Before(simtime.Time(simtime.Second)) {
				t.Fatalf("provisioning before the scale event: %+v", p)
			}
		}
	}
	if !sawProvisioning {
		t.Fatalf("timeline never showed the cold start: %+v", rep.FleetTimeline)
	}
	ready := simtime.Time(simtime.Second).Add(delay)
	for _, rec := range rep.Records {
		if rec.Replica == 1 && rec.Arrival.Before(ready) {
			t.Fatalf("request %d routed to replica 1 before it was ready: %+v", rec.ID, rec)
		}
	}
}

// TestFleetEventTargetsMissingReplica: events naming a slot the fleet
// never had must fail loudly instead of silently no-opping a typo.
func TestFleetEventTargetsMissingReplica(t *testing.T) {
	c := autoscaledCluster(t, Config{
		Replicas: 2,
		Events: []workload.FleetEvent{
			{Time: simtime.Time(100 * simtime.Millisecond), Kind: workload.EventFail, Replica: 9},
		},
	})
	if _, err := c.Run(testTrace(t, 10)); err == nil || !strings.Contains(err.Error(), "replica 9") {
		t.Fatalf("want an error naming the missing replica, got %v", err)
	}
}

// TestAutoscaledDeterministic: the same trace, events, and scaling setup
// must reproduce every TSV bit-for-bit across runs.
func TestAutoscaledDeterministic(t *testing.T) {
	run := func() string {
		scaler, err := NewAutoscaler(ScaleQueueDepth, AutoscalerConfig{QueueTarget: 4})
		if err != nil {
			t.Fatal(err)
		}
		c := autoscaledCluster(t, Config{
			Replicas:       2,
			Scaling:        map[Role]PoolScaling{RoleUnified: {Scaler: scaler, Min: 2, Max: 6}},
			ScaleTick:      200 * simtime.Millisecond,
			ProvisionDelay: 300 * simtime.Millisecond,
			Events: []workload.FleetEvent{
				{Time: simtime.Time(simtime.Second), Kind: workload.EventFail, Replica: 1},
			},
		})
		rep, err := c.Run(testTrace(t, 60))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, w := range []func(*bytes.Buffer) error{
			func(b *bytes.Buffer) error { return rep.WriteClassTSV(b) },
			func(b *bytes.Buffer) error { return rep.WriteRequestsTSV(b) },
			func(b *bytes.Buffer) error { return rep.WriteReplicaTSV(b) },
			func(b *bytes.Buffer) error { return rep.WriteFleetTSV(b) },
		} {
			if err := w(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed and events produced different reports:\n%s\nvs\n%s", a, b)
	}
}

// peakReplicas returns the largest committed fleet size over the run.
func peakReplicas(rep *Report) int {
	peak := 0
	for _, p := range rep.FleetTimeline {
		peak = max(peak, p.Committed())
	}
	return peak
}
