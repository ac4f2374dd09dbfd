package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/simtime"
)

func TestCollectorTotals(t *testing.T) {
	var c Collector
	c.AddIteration(Iteration{Start: 0, End: simtime.AtSeconds(1), PromptTokens: 100, GenTokens: 10, BatchSize: 4})
	c.AddIteration(Iteration{Start: simtime.AtSeconds(1), End: simtime.AtSeconds(2), PromptTokens: 0, GenTokens: 20, BatchSize: 4})
	if c.TotalPromptTokens() != 100 || c.TotalGenTokens() != 30 {
		t.Fatal("totals")
	}
	if c.End() != simtime.AtSeconds(2) {
		t.Fatal("end")
	}
	p, g := c.MeanThroughput()
	if p != 50 || g != 15 {
		t.Fatalf("throughput %v %v", p, g)
	}
}

// TestCollectorStream pins the streaming contract: End, token totals,
// and MeanThroughput are bit-identical to the retained collector, while
// per-iteration records (Iterations, Buckets) are dropped.
func TestCollectorStream(t *testing.T) {
	var exact, stream Collector
	stream.Stream()
	for _, it := range []Iteration{
		{End: simtime.AtSeconds(0.5), PromptTokens: 100, GenTokens: 1, BatchSize: 3},
		{End: simtime.AtSeconds(1.5), PromptTokens: 7, GenTokens: 2, BatchSize: 2},
		{End: simtime.AtSeconds(1.7), GenTokens: 3, BatchSize: 1},
	} {
		exact.AddIteration(it)
		stream.AddIteration(it)
	}
	if stream.End() != exact.End() {
		t.Fatalf("end %v != %v", stream.End(), exact.End())
	}
	if stream.TotalPromptTokens() != exact.TotalPromptTokens() ||
		stream.TotalGenTokens() != exact.TotalGenTokens() {
		t.Fatal("token totals diverged")
	}
	sp, sg := stream.MeanThroughput()
	ep, eg := exact.MeanThroughput()
	if sp != ep || sg != eg {
		t.Fatalf("throughput %v/%v != %v/%v", sp, sg, ep, eg)
	}
	if stream.Iterations() != nil || stream.Buckets(simtime.Second) != nil {
		t.Fatal("streaming collector retained iteration records")
	}
	// Switching mid-run drops the retained records but keeps the totals
	// they already contributed.
	exact.Stream()
	if exact.Iterations() != nil {
		t.Fatal("records survived the switch")
	}
	if exact.End() != stream.End() || exact.TotalGenTokens() != stream.TotalGenTokens() {
		t.Fatal("totals lost in the switch")
	}
}

func TestEmptyCollector(t *testing.T) {
	var c Collector
	if c.End() != 0 {
		t.Fatal("empty end")
	}
	p, g := c.MeanThroughput()
	if p != 0 || g != 0 {
		t.Fatal("empty throughput")
	}
	if c.Buckets(simtime.Second) != nil {
		t.Fatal("empty buckets")
	}
}

func TestBuckets(t *testing.T) {
	var c Collector
	// Iterations ending at 0.5s, 1.5s, 1.7s.
	c.AddIteration(Iteration{End: simtime.AtSeconds(0.5), PromptTokens: 10, GenTokens: 1})
	c.AddIteration(Iteration{End: simtime.AtSeconds(1.5), GenTokens: 2})
	c.AddIteration(Iteration{End: simtime.AtSeconds(1.7), GenTokens: 3})
	b := c.Buckets(simtime.Second)
	if len(b) != 2 {
		t.Fatalf("buckets %d", len(b))
	}
	if b[0].PromptTPS != 10 || b[0].GenTPS != 1 {
		t.Fatalf("bucket 0 %+v", b[0])
	}
	if b[1].GenTPS != 5 {
		t.Fatalf("bucket 1 %+v", b[1])
	}
	if c.Buckets(0) != nil {
		t.Fatal("zero width")
	}
}

func TestWriteThroughputTSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteThroughputTSV(&buf, []Bucket{
		{Time: simtime.AtSeconds(10), PromptTPS: 100.5, GenTPS: 20.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "time_s\tprompt_throughput_tps\tgen_throughput_tps\n") {
		t.Fatalf("header missing: %q", out)
	}
	if !strings.Contains(out, "10.000\t100.50\t20.25") {
		t.Fatalf("row missing: %q", out)
	}
}

func TestComponentTimes(t *testing.T) {
	c := ComponentTimes{Scheduler: time.Second, ExecutionEngine: 2 * time.Second,
		GraphConverter: 3 * time.Second, AstraSim: 4 * time.Second}
	if c.Total() != 10*time.Second {
		t.Fatal("total")
	}
	var buf bytes.Buffer
	if err := WriteSimulationTimeTSV(&buf, c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"component\ttime_ms", "scheduler\t1000.000", "astra_sim\t4000.000", "total\t10000.000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in %q", want, out)
		}
	}
}

func TestMeanAbsPctError(t *testing.T) {
	if e := MeanAbsPctError([]float64{100, 100}, []float64{100, 100}); e != 0 {
		t.Fatalf("identical series error %v", e)
	}
	if e := MeanAbsPctError([]float64{110, 90}, []float64{100, 100}); math.Abs(e-0.1) > 1e-9 {
		t.Fatalf("10%% error: %v", e)
	}
	// Idle reference windows are excluded.
	if e := MeanAbsPctError([]float64{110, 500}, []float64{100, 0}); math.Abs(e-0.1) > 1e-9 {
		t.Fatalf("idle exclusion: %v", e)
	}
	if MeanAbsPctError(nil, nil) != 0 {
		t.Fatal("empty")
	}
}

func TestGeomeanError(t *testing.T) {
	// Two configs at 10% and 40% error: geomean = 20%.
	e := GeomeanError([]float64{110, 140}, []float64{100, 100})
	if math.Abs(e-0.2) > 1e-9 {
		t.Fatalf("geomean %v", e)
	}
	if GeomeanError(nil, nil) != 0 {
		t.Fatal("empty")
	}
	// Zero reference entries are skipped.
	e = GeomeanError([]float64{110, 1}, []float64{100, 0})
	if math.Abs(e-0.1) > 1e-9 {
		t.Fatalf("zero skip %v", e)
	}
}

func TestLatency(t *testing.T) {
	samples := []LatencySample{
		{Arrival: 0, FirstToken: simtime.AtSeconds(1), Completed: simtime.AtSeconds(3), OutputTokens: 5},
		{Arrival: 0, FirstToken: simtime.AtSeconds(2), Completed: simtime.AtSeconds(5), OutputTokens: 1},
	}
	s := Latency(samples)
	if s.Count != 2 || s.MeanSec != 4 || s.MeanTTFTSec != 1.5 {
		t.Fatalf("latency %+v", s)
	}
	// Nearest-rank over {3, 5}: P50 = rank ceil(0.5*2) = 1 -> 3;
	// P95/P99 = rank 2 -> 5.
	if s.P50Sec != 3 || s.P95Sec != 5 || s.P99Sec != 5 {
		t.Fatalf("percentiles %+v", s)
	}
	// TPOT: only the 5-token sample counts: (3-1)/(5-1) = 0.5s.
	if s.MeanTPOTSec != 0.5 {
		t.Fatalf("tpot %+v", s)
	}
	if Latency(nil).Count != 0 {
		t.Fatal("empty")
	}
}

// TestLatencyPercentilesPinned pins exact nearest-rank values on sizes
// where the old lat[n/2] / lat[n*95/100] indexing was off by one.
func TestLatencyPercentilesPinned(t *testing.T) {
	mk := func(n int) []LatencySample {
		out := make([]LatencySample, n)
		for i := range out {
			// Latencies 1..n seconds, in reverse order to exercise sorting.
			out[i] = LatencySample{Completed: simtime.AtSeconds(float64(n - i)), OutputTokens: 1}
		}
		return out
	}
	cases := []struct {
		n             int
		p50, p95, p99 float64
	}{
		{1, 1, 1, 1},
		{2, 1, 2, 2},       // old code: P50 = lat[1] = 2
		{4, 2, 4, 4},       // old code: P50 = lat[2] = 3
		{20, 10, 19, 20},   // old code: P95 = lat[19] = 20
		{100, 50, 95, 99},  // old code: P95 = lat[95] = 96
		{101, 51, 96, 100}, // ceil(95.95)=96, ceil(99.99)=100
	}
	for _, c := range cases {
		s := Latency(mk(c.n))
		if s.P50Sec != c.p50 || s.P95Sec != c.p95 || s.P99Sec != c.p99 {
			t.Errorf("n=%d: got p50/p95/p99 = %v/%v/%v, want %v/%v/%v",
				c.n, s.P50Sec, s.P95Sec, s.P99Sec, c.p50, c.p95, c.p99)
		}
	}
}

func TestPercentileSorted(t *testing.T) {
	if PercentileSorted(nil, 0.5) != 0 {
		t.Fatal("empty must be zero")
	}
	sorted := []float64{10, 20, 30, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0.50, 30}, {0.95, 50}, {0.99, 50}, {0.20, 10}, {0.21, 20}, {1, 50},
	}
	for _, c := range cases {
		if got := PercentileSorted(sorted, c.p); got != c.want {
			t.Errorf("p=%v: got %v, want %v", c.p, got, c.want)
		}
	}
}
