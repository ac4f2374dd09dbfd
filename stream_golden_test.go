package llmservingsim_test

// Determinism acceptance for the streaming engine at the public API:
// a TraceStream run must be byte-identical to the same scenario with
// the collected Trace, cluster runs must be byte-identical standalone
// and under a parallel Sweep, and a streamed per-request TSV must
// carry exactly the rows of the retained table.

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	sim "repro"
)

func goldenStreamScenario(t testing.TB) sim.ClusterScenario {
	t.Helper()
	return sim.ClusterScenario{
		Name:     "stream",
		Config:   goldenConfig(sim.SchedOrca, sim.KVPaged),
		Replicas: 2,
		Router:   sim.RouterLeastLoaded,
		Classes:  goldenClasses(),
	}
}

// TestGoldenStreamEquivalence pins the pull path: the generator fed
// directly through TraceStream reproduces the materialized-trace
// fingerprint (which TestGoldenCluster pins to a literal, so this
// transitively pins the stream path too).
func TestGoldenStreamEquivalence(t *testing.T) {
	sc := goldenStreamScenario(t)
	sc.Trace = goldenTrace(t)
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := clusterFingerprint(rep)

	sc = goldenStreamScenario(t)
	stream, err := sim.NewMultiClassStream(goldenClasses(), 48, sim.Ramp{From: 0.8, To: 1.6}, 20240614)
	if err != nil {
		t.Fatal(err)
	}
	sc.TraceStream = stream
	rep, err = sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := clusterFingerprint(rep); got != want {
		t.Errorf("stream run diverged from trace run\n got %s\nwant %s", got, want)
	}
}

// TestGoldenStreamMetrics pins the exact surface of the streaming
// accumulators: every fingerprint field except the sketch-backed p99
// must match the retained run bit-for-bit, and the record table must
// be gone.
func TestGoldenStreamMetrics(t *testing.T) {
	run := func(streaming bool) *sim.ClusterReport {
		sc := goldenStreamScenario(t)
		sc.Trace = goldenTrace(t)
		sc.StreamMetrics = streaming
		rep, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	exactFields := func(r *sim.ClusterReport) string {
		ev, rl := r.KVEvictions()
		return fmt.Sprintf("iters=%d admitted=%d rejected=%d end_ps=%d evict=%d reload=%d tput=%s good=%s",
			r.TotalIterations(), r.Admitted, r.Rejected, int64(r.SimEndSec*1e12+0.5),
			ev, rl, g17(r.ThroughputTPS), g17(r.GoodputTPS))
	}
	exact, got := run(false), run(true)
	if w, g := exactFields(exact), exactFields(got); g != w {
		t.Errorf("streaming metrics diverged on exact fields\n got %s\nwant %s", g, w)
	}
	// The accumulator's mean divides an exact integer nanosecond sum, so
	// it can differ from the retained path's float64 summation by an ULP
	// — but no more.
	if d := got.Latency.MeanSec - exact.Latency.MeanSec; d > 1e-9 || d < -1e-9 {
		t.Errorf("latency mean %v diverged from %v", got.Latency.MeanSec, exact.Latency.MeanSec)
	}
	var table bytes.Buffer
	if err := got.WriteRequestsTSV(&table); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(table.String(), "\n"); lines != 1 {
		t.Errorf("streaming report retained %d request rows, want header only", lines-1)
	}
}

// TestGoldenStreamSweep pins run isolation under Sweep's worker
// pool: two copies of a 4-replica scenario run on two workers must
// each reproduce the standalone fingerprint, with retained and with
// streaming metrics.
func TestGoldenStreamSweep(t *testing.T) {
	for _, streaming := range []bool{false, true} {
		scenario := func() sim.ClusterScenario {
			sc := goldenStreamScenario(t)
			sc.Replicas = 4
			sc.Trace = goldenTrace(t)
			sc.StreamMetrics = streaming
			return sc
		}
		rep, err := scenario().Run()
		if err != nil {
			t.Fatal(err)
		}
		want := clusterFingerprint(rep)

		sw := &sim.Sweep{
			ClusterScenarios: []sim.ClusterScenario{scenario(), scenario()},
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
			if got := clusterFingerprint(res.Cluster); got != want {
				t.Errorf("streaming=%v: sweep result %d diverged from standalone\n got %s\nwant %s", streaming, i, got, want)
			}
		}
	}
}

// TestGoldenRequestsOut checks the streamed per-request TSV: rows
// arrive in completion order, but as a set they must equal the
// retained run's table exactly.
func TestGoldenRequestsOut(t *testing.T) {
	sc := goldenStreamScenario(t)
	sc.Trace = goldenTrace(t)
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := rep.WriteRequestsTSV(&want); err != nil {
		t.Fatal(err)
	}

	var streamed bytes.Buffer
	sc = goldenStreamScenario(t)
	sc.Trace = goldenTrace(t)
	sc.StreamMetrics = true
	sc.RequestsOut = &streamed
	if _, err := sc.Run(); err != nil {
		t.Fatal(err)
	}
	sortRows := func(s string) []string {
		rows := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
		sort.Strings(rows)
		return rows
	}
	w, g := sortRows(want.String()), sortRows(streamed.String())
	if len(w) != len(g) {
		t.Fatalf("streamed %d rows, want %d", len(g), len(w))
	}
	for i := range w {
		if w[i] != g[i] {
			t.Errorf("row diverges:\n got %s\nwant %s", g[i], w[i])
		}
	}
}

// TestStreamScenarioValidation pins the public configuration contract
// of the streaming engine.
func TestStreamScenarioValidation(t *testing.T) {
	stream, err := sim.NewMultiClassStream(goldenClasses(), 8, sim.Ramp{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := goldenStreamScenario(t)
	if err := sc.Validate(); err == nil {
		t.Error("scenario without trace or stream must fail")
	}
	sc = goldenStreamScenario(t)
	sc.Trace = goldenTrace(t)
	sc.TraceStream = stream
	if err := sc.Validate(); err == nil {
		t.Error("scenario with both trace and stream must fail")
	}
}
