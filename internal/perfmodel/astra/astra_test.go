package astra

import (
	"testing"

	astrasim "repro/internal/astra"
	"repro/internal/config"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/workload"
)

func testConfig(t *testing.T, npus int) perfmodel.Config {
	t.Helper()
	topo, err := network.Build(network.Tensor, npus, 0, config.DefaultLink(), config.DefaultLink())
	if err != nil {
		t.Fatal(err)
	}
	return perfmodel.Config{
		Model: model.MustLookup("gpt2"),
		Topo:  topo,
		Reuse: perfmodel.ReuseAll(),
	}
}

// firstBatch forms the first scheduler batch of the given trace under
// the config's model — the unit IterationLatency prices.
func firstBatch(t *testing.T, cfg perfmodel.Config, reqs []workload.Request) *sched.Batch {
	t.Helper()
	kv, err := kvcache.New(kvcache.Config{
		Policy:        kvcache.Paged,
		PageTokens:    16,
		BytesPerToken: cfg.Model.KVBytesPerToken(),
		CapacityBytes: 8 << 30,
		MaxSeqLen:     cfg.Model.MaxSeqLen,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New(sched.Config{SubBatches: 1}, kv, reqs)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := s.Next()
	if !ok {
		t.Fatal("no batch")
	}
	return b
}

// TestCriticalPathCoversIteration: the critical path through a converted
// graph accounts for the whole makespan on a contention-free single
// device.
func TestCriticalPathCoversIteration(t *testing.T) {
	cfg := testConfig(t, 1)
	b, err := New(cfg, Options{NPU: config.DefaultNPU()})
	if err != nil {
		t.Fatal(err)
	}
	batch := firstBatch(t, cfg, []workload.Request{{ID: 0, InputLen: 32, OutputLen: 1}})
	work, embedDur, headDur, totalNew, err := b.runEngines(batch)
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.convert(batch, work, embedDur, headDur, totalNew)
	if err != nil {
		t.Fatal(err)
	}
	res, err := new(astrasim.Executor).Execute(g)
	if err != nil {
		t.Fatal(err)
	}
	path := astrasim.CriticalPath(g, res)
	var pathDur simtime.Duration
	for _, id := range path {
		pathDur += g.Nodes[id].Duration
	}
	if pathDur != res.Makespan {
		t.Fatalf("critical path %v != makespan %v on serial device", pathDur, res.Makespan)
	}
}

// TestExecutorReuseAllocatesNothing: once an Executor has run an
// iteration's graph, running it again reuses every scratch buffer, so
// the per-iteration system simulation allocates nothing.
func TestExecutorReuseAllocatesNothing(t *testing.T) {
	cfg := testConfig(t, 2)
	b, err := New(cfg, Options{NPU: config.DefaultNPU()})
	if err != nil {
		t.Fatal(err)
	}
	batch := firstBatch(t, cfg, []workload.Request{
		{ID: 0, InputLen: 32, OutputLen: 1},
		{ID: 1, InputLen: 48, OutputLen: 1},
	})
	work, embedDur, headDur, totalNew, err := b.runEngines(batch)
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.convert(batch, work, embedDur, headDur, totalNew)
	if err != nil {
		t.Fatal(err)
	}
	var e astrasim.Executor
	if _, err := e.Execute(g); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := e.Execute(g); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("reused Executor.Execute allocates %v times per call, want 0", allocs)
	}
}

func TestGroupSeqs(t *testing.T) {
	b := &sched.Batch{
		Seqs: []model.Seq{
			{ReqID: 0, NewTokens: 1}, {ReqID: 1, NewTokens: 1}, {ReqID: 2, NewTokens: 1},
		},
		SubBatch: map[int]int{0: 0, 1: 1, 2: 0},
	}
	groups := groupSeqs(b)
	if len(groups) != 2 || len(groups[0]) != 2 || len(groups[1]) != 1 {
		t.Fatalf("groups %v", groups)
	}
}

// TestHostTimesAccumulate: the adapter attributes its host time to the
// engine/converter/astra components.
func TestHostTimesAccumulate(t *testing.T) {
	cfg := testConfig(t, 2)
	b, err := New(cfg, Options{NPU: config.DefaultNPU()})
	if err != nil {
		t.Fatal(err)
	}
	batch := firstBatch(t, cfg, []workload.Request{{ID: 0, InputLen: 64, OutputLen: 1}})
	lat, _, err := b.IterationLatency(batch)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Fatal("iteration latency must be positive")
	}
	h := b.Host()
	if h.ExecutionEngine <= 0 || h.GraphConverter <= 0 || h.AstraSim <= 0 {
		t.Fatalf("host times missing: %+v", h)
	}
	if h.Scheduler != 0 {
		t.Fatalf("scheduler host time is the caller's, got %v", h.Scheduler)
	}
	b.ResetStats()
	if got := b.Host(); got.Total() != 0 {
		t.Fatalf("ResetStats left host times: %+v", got)
	}
}
