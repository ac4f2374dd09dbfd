package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// smokeRequests sizes each workload for the reduced smoke runs: large
// enough that every class and layer sees traffic, small enough to finish
// in about a second.
var smokeRequests = map[string]int{
	"paper-instance": 24,
	"astra-fleet":    300,
	"session-prefix": 1000,
	"fleet-scale":    4000,
}

// TestSmokeTracedMatchesPlain runs every workload at reduced size
// through the public API and through the traced internal assembly, and
// requires conserved counts and identical simulated digests.
func TestSmokeTracedMatchesPlain(t *testing.T) {
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			n := smokeRequests[sc.name]
			plain, err := runOnce(context.Background(), sc, n, 3, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runOnce(context.Background(), sc, n, 3, true)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range []sample{plain, traced} {
				for _, p := range s.Problems {
					if !strings.HasPrefix(p, sc.name+":") { // guards need full size
						t.Errorf("traced=%v: %s", i == 1, p)
					}
				}
			}
			if plain.Digest != traced.Digest {
				t.Errorf("traced digest %s != plain digest %s", traced.Digest, plain.Digest)
			}
			if self := traced.Layers["cluster.self_s"]; self < 0 || self > traced.WallS {
				t.Errorf("ledger residual %v outside [0, wall %v]", self, traced.WallS)
			}
			for _, lu := range layerUnits {
				if _, ok := traced.Layers[lu.name]; !ok && lu.name != "trace.overhead_frac" {
					t.Errorf("traced run lacks per-layer metric %s", lu.name)
				}
			}
		})
	}
}

// TestPinnedDigests runs every input of the default seed at full size
// and requires the pinned digests and every mechanism guard; input 0
// also runs traced. On a mismatch it prints the digests it got, in the
// form the pinned table takes.
func TestPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size runs")
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			got := make([]string, inputsPerSeed)
			for j := range got {
				for _, traced := range []bool{false, j == 0} {
					s, err := runOnce(context.Background(), sc, sc.requests, inputSeed(defaultSeed, j), traced)
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range s.Problems {
						t.Errorf("input %d traced=%v: %s", j, traced, p)
					}
					got[j] = s.Digest
				}
			}
			if want := pinned[sc.name]; !slices.Equal(got, want) {
				t.Errorf("digests differ from the pinned ones; got\n\t%q: {%s},", sc.name, quoteAll(got))
			}
		})
	}
}

func quoteAll(v []string) string {
	q := make([]string, len(v))
	for i, s := range v {
		q[i] = strconv.Quote(s)
	}
	return strings.Join(q, ", ")
}

func TestConservationFlagsImbalance(t *testing.T) {
	good := outcome{
		Requests: 10, Admitted: 8, Rejected: 2, Iterations: 5, SimEndPs: 1,
		Classes: []classOutcome{
			{Name: "a", Requests: 6, Completed: 5, Rejected: 1, RejectedAdmission: 1},
			{Name: "b", Requests: 4, Completed: 3, Rejected: 1, RejectedUnservable: 1},
		},
	}
	if bad := good.conservation(10); len(bad) != 0 {
		t.Fatalf("balanced outcome flagged: %v", bad)
	}
	lost := good
	lost.Classes = []classOutcome{good.Classes[0], good.Classes[1]}
	lost.Classes[1].Completed = 2 // one request vanished
	if bad := lost.conservation(10); len(bad) == 0 {
		t.Error("lost request not flagged")
	}
	if bad := good.conservation(11); len(bad) == 0 {
		t.Error("missing arrival not flagged")
	}
}

func TestDigestCoversSimulatedFields(t *testing.T) {
	a := outcome{Requests: 1, SimEndPs: 1000, LatP99Sec: 0.5}
	b := a
	b.SimEndPs++
	c := a
	c.LatP99Sec = 0.5000000000000001
	if a.digest() == b.digest() || a.digest() == c.digest() {
		t.Error("digest ignores a one-unit change")
	}
	if a.digest() != a.digest() {
		t.Error("digest not deterministic")
	}
}

// TestQuartilesMatchPython pins the quartile method to the values
// Python's statistics.quantiles(v, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6}, // Python extrapolates beyond two points
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := quartiles(tc.v)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestRunnerAccounting drives the loop with a fake spawner: the minimum
// run counts hold even with no time budget, traced runs pair with plain
// runs on the same input, and a run disagreeing with its input's
// reference or failing counts as failed.
func TestRunnerAccounting(t *testing.T) {
	sc := scenarios[0]
	calls := 0
	spawn := func(context.Context, scenario, int64, bool) (sample, float64, error) {
		calls++
		s := sample{Digest: "d", WallS: 1, Layers: map[string]float64{"trace.wall_s": 1}}
		switch calls {
		case 2: // the traced run on input 0 disagrees with the plain one
			s.Digest = "other"
		case 4:
			return sample{}, 0, errors.New("crashed")
		}
		return s, 0.01, nil
	}
	res := runner{sc: sc, seed: 9, traceMode: true, spawn: spawn, calib: fixedCalib}.run()
	plain, traced := res.counts()
	if plain < 2 || traced < 2 {
		t.Fatalf("runs %d plain + %d traced, want at least 2 + 2", plain, traced)
	}
	if got := res.failedCount(); got != 2 {
		t.Errorf("failed %d, want 2", got)
	}
	var buf bytes.Buffer
	res.print(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var v verdict
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		t.Fatal(err)
	}
	if v.Correct || v.Attempted != len(res.runs) || v.Failed != 2 || len(v.Metrics) != len(layerUnits) {
		t.Errorf("verdict %+v", v)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the code in step:
// the same workloads, and the same metric names and units in the same
// order.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(scenarios) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(scenarios))
	}
	for i, w := range spec.Workloads {
		if w.Name != scenarios[i].name || w.Why != scenarios[i].why {
			t.Errorf("workload %d: %q/%q in BENCHMARK.json, %q/%q in code", i, w.Name, w.Why, scenarios[i].name, scenarios[i].why)
		}
	}
	var res result
	e2e := res.endToEnd()
	if len(spec.EndToEnd) != len(e2e) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(spec.EndToEnd), len(e2e))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != e2e[i].name || m.Unit != e2e[i].unit {
			t.Errorf("end-to-end %d: %s/%s vs %s/%s", i, m.Name, m.Unit, e2e[i].name, e2e[i].unit)
		}
	}
	if len(spec.PerLayer) != len(layerUnits) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(spec.PerLayer), len(layerUnits))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerUnits[i].name || m.Unit != layerUnits[i].unit {
			t.Errorf("per-layer %d: %s/%s vs %s/%s", i, m.Name, m.Unit, layerUnits[i].name, layerUnits[i].unit)
		}
	}
}

// TestRunnerStopsAtBudget checks the loop ends once the budget has
// passed and the minimum counts are met.
func TestRunnerStopsAtBudget(t *testing.T) {
	spawn := func(context.Context, scenario, int64, bool) (sample, float64, error) {
		time.Sleep(5 * time.Millisecond)
		return sample{Digest: "d"}, 0, nil
	}
	res := runner{sc: scenarios[0], seed: 1, budget: 30 * time.Millisecond, spawn: spawn, calib: fixedCalib}.run()
	if n := len(res.runs); n < 3 || n > 12 {
		t.Errorf("%d runs in a 30 ms budget of 5 ms runs", n)
	}
}

func fixedCalib() time.Duration { return time.Duration(calibRef * float64(time.Second)) }
