package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// reportFingerprint serializes the report's deterministic surface so
// runs can be compared byte for byte. withRequests adds the
// per-request table (absent in streaming-metrics mode, where
// Report.Records is nil).
func reportFingerprint(t testing.TB, r *Report, withRequests bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteClassTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteReplicaTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if withRequests {
		if err := r.WriteRequestsTSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Fprintf(&buf, "counts %d %d %d %d\nend %d\nlatency %+v\nrates %.17g %.17g %.17g\n",
		r.Requests, r.Admitted, r.Rejected, r.Requeued, int64(r.SimEnd),
		r.Latency, r.ThroughputTPS, r.GoodputTPS, r.PromptTPS)
	return buf.Bytes()
}

// TestRunStreamMatchesRun pins the pull path against the materialized
// path: feeding the generator stream directly must be byte-identical
// to collecting it into a trace first.
func TestRunStreamMatchesRun(t *testing.T) {
	run := func(stream bool) *Report {
		c, err := New(Config{
			Replicas:   4,
			NewReplica: newReplicaFactory(t),
			Classes:    testClasses(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !stream {
			rep, err := c.Run(testTrace(t, 40))
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		s, err := workload.NewMultiClassStream(testClasses(), 40, workload.Ramp{}, 17)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.RunStream(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a := reportFingerprint(t, run(false), true)
	b := reportFingerprint(t, run(true), true)
	if !bytes.Equal(a, b) {
		t.Fatalf("stream run diverges from materialized run:\n%s\nvs\n%s", a, b)
	}
}

// TestStreamMetricsMatchesExact pins the streaming-accumulator report
// against the retained-records report on the same run: counts, token
// rates, and means exact; percentiles within the sketch contract.
func TestStreamMetricsMatchesExact(t *testing.T) {
	run := func(streaming bool) *Report {
		c, err := New(Config{
			Replicas:      4,
			NewReplica:    newReplicaFactory(t),
			Classes:       testClasses(),
			StreamMetrics: streaming,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run(testTrace(t, 60))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	exact, got := run(false), run(true)
	if got.Records != nil {
		t.Fatal("streaming mode must not retain records")
	}
	if got.Requests != exact.Requests || got.Admitted != exact.Admitted || got.Rejected != exact.Rejected {
		t.Fatalf("counts diverge: %d/%d/%d vs %d/%d/%d",
			got.Requests, got.Admitted, got.Rejected, exact.Requests, exact.Admitted, exact.Rejected)
	}
	for i := range exact.PerReplica {
		if got.PerReplica[i].Requests != exact.PerReplica[i].Requests {
			t.Fatalf("replica %d request count %d, want %d",
				i, got.PerReplica[i].Requests, exact.PerReplica[i].Requests)
		}
	}
	if got.ThroughputTPS != exact.ThroughputTPS || got.GoodputTPS != exact.GoodputTPS ||
		got.PromptTPS != exact.PromptTPS {
		t.Fatalf("token rates diverge: %+v vs %+v", got, exact)
	}
	if got.Latency.Count != exact.Latency.Count {
		t.Fatalf("latency count %d, want %d", got.Latency.Count, exact.Latency.Count)
	}
	approx := func(name string, g, e, tol float64) {
		t.Helper()
		err := math.Abs(g - e)
		if e != 0 {
			err /= math.Abs(e)
		}
		if err > tol {
			t.Errorf("%s: %g vs exact %g (rel err %g > %g)", name, g, e, err, tol)
		}
	}
	approx("latency mean", got.Latency.MeanSec, exact.Latency.MeanSec, 1e-9)
	approx("latency ttft mean", got.Latency.MeanTTFTSec, exact.Latency.MeanTTFTSec, 1e-9)
	approx("latency tpot mean", got.Latency.MeanTPOTSec, exact.Latency.MeanTPOTSec, 1e-9)
	approx("latency p50", got.Latency.P50Sec, exact.Latency.P50Sec, metrics.SketchRelError)
	approx("latency p95", got.Latency.P95Sec, exact.Latency.P95Sec, metrics.SketchRelError)
	approx("latency p99", got.Latency.P99Sec, exact.Latency.P99Sec, metrics.SketchRelError)
	if len(got.Classes) != len(exact.Classes) {
		t.Fatalf("class count %d, want %d", len(got.Classes), len(exact.Classes))
	}
	for i := range exact.Classes {
		e, g := exact.Classes[i], got.Classes[i]
		ec, gc := e, g
		ec.TTFT, ec.TPOT, ec.Latency = metrics.Dist{}, metrics.Dist{}, metrics.Dist{}
		gc.TTFT, gc.TPOT, gc.Latency = metrics.Dist{}, metrics.Dist{}, metrics.Dist{}
		if !reflect.DeepEqual(ec, gc) {
			t.Errorf("class %s counters diverge:\nexact %+v\naccum %+v", e.Class, ec, gc)
		}
		approx(e.Class+" ttft p95", g.TTFT.P95Sec, e.TTFT.P95Sec, metrics.SketchRelError)
		approx(e.Class+" latency p99", g.Latency.P99Sec, e.Latency.P99Sec, metrics.SketchRelError)
		approx(e.Class+" tpot mean", g.TPOT.MeanSec, e.TPOT.MeanSec, 1e-9)
	}
}

// TestOnRecordStreamsEveryTerminalRecord checks the streaming row
// sink: every request's final record is delivered exactly once, and —
// reordered by ID — the rows match the retained run's records.
func TestOnRecordStreamsEveryTerminalRecord(t *testing.T) {
	exact := func() *Report {
		c, err := New(Config{Replicas: 4, NewReplica: newReplicaFactory(t), Classes: testClasses()})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run(testTrace(t, 40))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}()
	var rows []metrics.RequestRecord
	c, err := New(Config{
		Replicas:      4,
		NewReplica:    newReplicaFactory(t),
		Classes:       testClasses(),
		StreamMetrics: true,
		OnRecord:      func(r *metrics.RequestRecord) { rows = append(rows, *r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(testTrace(t, 40)); err != nil {
		t.Fatal(err)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	if !reflect.DeepEqual(rows, exact.Records) {
		t.Fatalf("streamed rows diverge from retained records:\n%+v\nvs\n%+v", rows, exact.Records)
	}
}

// unorderedStream violates the non-decreasing-arrival contract.
type unorderedStream struct{ i int }

func (s *unorderedStream) Next() (workload.Request, bool) {
	if s.i >= 2 {
		return workload.Request{}, false
	}
	r := workload.Request{
		ID: s.i, InputLen: 8, OutputLen: 4,
		Arrival: simtime.Time(int64(2-s.i) * int64(simtime.Second)),
	}
	s.i++
	return r, true
}

// failingStream terminates with an error, like an overflowed generator.
type failingStream struct{}

func (failingStream) Next() (workload.Request, bool) { return workload.Request{}, false }
func (failingStream) Err() error                     { return errors.New("generator failed") }

func TestRunStreamErrors(t *testing.T) {
	c, err := New(Config{Replicas: 2, NewReplica: newReplicaFactory(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunStream(context.Background(), &unorderedStream{}); err == nil {
		t.Fatal("out-of-order stream must fail the run")
	}
	c, err = New(Config{Replicas: 2, NewReplica: newReplicaFactory(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunStream(context.Background(), failingStream{}); err == nil {
		t.Fatal("stream error must fail the run")
	}
}
