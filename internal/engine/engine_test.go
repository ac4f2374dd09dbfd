package engine_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/engine/gpu"
	"repro/internal/engine/npu"
	"repro/internal/engine/pim"
	"repro/internal/model"
	"repro/internal/simtime"
)

func newStack(t *testing.T, reuse bool) *engine.Stack {
	t.Helper()
	eng, err := npu.New(config.DefaultNPU())
	if err != nil {
		t.Fatal(err)
	}
	return engine.NewStack(eng, reuse, nil)
}

func gemmOp(m int) model.Op {
	return model.Op{
		Kind: model.OpQKVGen, Name: "QKVGen", Phase: model.Initiation,
		M: m, N: 256, K: 256, Heads: 1, ReqID: -1, Batched: true,
		Weights: 256 * 256 * 2,
	}
}

// TestComputationReuse verifies the paper's core optimisation: repeated
// shapes compile and simulate once, later calls hit the caches, and cached
// results are bit-identical to fresh ones.
func TestComputationReuse(t *testing.T) {
	s := newStack(t, true)
	op := gemmOp(64)

	first, err := s.RunLatency(op)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.RunLatency(op)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("cached latency %v differs from fresh %v", second, first)
	}
	st := s.Stats()
	if st.CompileCalls != 2 || st.CompileHits != 1 {
		t.Fatalf("compile calls/hits = %d/%d", st.CompileCalls, st.CompileHits)
	}
	if st.SimulateCalls != 2 || st.SimulateHits != 1 {
		t.Fatalf("simulate calls/hits = %d/%d", st.SimulateCalls, st.SimulateHits)
	}
	if c, r := s.Cache().Sizes(); c != 1 || r != 1 {
		t.Fatalf("cache sizes %d/%d", c, r)
	}
}

// TestReuseAcrossRequests: attention ops of different requests with the
// same context share a cache entry (the key excludes ReqID).
func TestReuseAcrossRequests(t *testing.T) {
	s := newStack(t, true)
	a := model.Op{Kind: model.OpScore, Name: "Score.r0", M: 1, N: 65, K: 128, Heads: 8, ReqID: 0, Context: 65}
	b := a
	b.Name, b.ReqID = "Score.r7", 7
	if _, err := s.RunLatency(a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunLatency(b); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SimulateHits != 1 {
		t.Fatalf("expected cross-request cache hit, stats %+v", st)
	}
}

func TestNoReuseRecomputes(t *testing.T) {
	s := newStack(t, false)
	op := gemmOp(64)
	for i := 0; i < 3; i++ {
		if _, err := s.RunLatency(op); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.CompileHits != 0 || st.SimulateHits != 0 {
		t.Fatalf("no-reuse stack must not hit caches: %+v", st)
	}
	if c, r := s.Cache().Sizes(); c != 0 || r != 0 {
		t.Fatalf("no-reuse stack must not populate caches: %d/%d", c, r)
	}
}

func TestResetStats(t *testing.T) {
	s := newStack(t, true)
	if _, err := s.RunLatency(gemmOp(64)); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	if st := s.Stats(); st.CompileCalls != 0 || st.OpsSimulated != 0 {
		t.Fatalf("stats must reset: %+v", st)
	}
	// Caches survive a stats reset.
	if c, _ := s.Cache().Sizes(); c != 1 {
		t.Fatal("caches must survive ResetStats")
	}
}

// TestStackStatsScript pins every counter after a scripted sequence of
// misses, hits, a compile error, a stats reset and a reuse-off stack.
// Host-time fields are wall-clock measurements and are left out.
func TestStackStatsScript(t *testing.T) {
	a, b, c := gemmOp(64), gemmOp(32), gemmOp(16)
	bad := gemmOp(0) // non-positive dims: Compile fails

	// Fresh latencies from a reuse-off stack, so no cache is involved.
	fresh := newStack(t, false)
	lat := map[int]simtime.Duration{}
	for _, op := range []model.Op{a, b, c} {
		d, err := fresh.RunLatency(op)
		if err != nil {
			t.Fatal(err)
		}
		lat[op.M] = d
	}
	counters := func(st engine.StackStats) engine.StackStats {
		st.CompileHost, st.SimulateHost = 0, 0
		return st
	}
	run := func(s *engine.Stack, ops ...model.Op) {
		t.Helper()
		for _, op := range ops {
			d, err := s.RunLatency(op)
			if op.M == 0 {
				if err == nil {
					t.Fatal("zero-dim op must fail to compile")
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if d != lat[op.M] {
				t.Fatalf("latency of M=%d: %v, fresh %v", op.M, d, lat[op.M])
			}
		}
	}

	s := newStack(t, true)
	run(s, a, a, b, bad, a, b, c, c)
	want := engine.StackStats{
		CompileCalls: 8, CompileHits: 4,
		SimulateCalls: 7, SimulateHits: 4,
		OpsSimulated:  7,
		SimulatedBusy: 3*lat[64] + 2*lat[32] + 2*lat[16],
	}
	if got := counters(s.Stats()); got != want {
		t.Fatalf("reuse on:\n got %+v\nwant %+v", got, want)
	}

	// The caches survive a stats reset: every lookup now hits.
	s.ResetStats()
	run(s, c, b, a)
	want = engine.StackStats{
		CompileCalls: 3, CompileHits: 3,
		SimulateCalls: 3, SimulateHits: 3,
		OpsSimulated:  3,
		SimulatedBusy: lat[64] + lat[32] + lat[16],
	}
	if got := counters(s.Stats()); got != want {
		t.Fatalf("after reset:\n got %+v\nwant %+v", got, want)
	}

	off := newStack(t, false)
	run(off, a, a, bad, a)
	want = engine.StackStats{
		CompileCalls: 4, SimulateCalls: 3, OpsSimulated: 3,
		SimulatedBusy: 3 * lat[64],
	}
	if got := counters(off.Stats()); got != want {
		t.Fatalf("reuse off:\n got %+v\nwant %+v", got, want)
	}

	// A failed simulation keeps the compiled artifact: the retry is a
	// compile hit that simulates, and the lookup after it hits fully.
	eng, err := npu.New(config.DefaultNPU())
	if err != nil {
		t.Fatal(err)
	}
	flaky := engine.NewStack(&failFirstSimulate{Engine: eng}, true, nil)
	if _, err := flaky.RunLatency(a); err == nil {
		t.Fatal("first simulation must fail")
	}
	run(flaky, a, a)
	want = engine.StackStats{
		CompileCalls: 3, CompileHits: 2,
		SimulateCalls: 3, SimulateHits: 1,
		OpsSimulated:  2,
		SimulatedBusy: 2 * lat[64],
	}
	if got := counters(flaky.Stats()); got != want {
		t.Fatalf("after a failed simulation:\n got %+v\nwant %+v", got, want)
	}
}

// failFirstSimulate fails its first Simulate call.
type failFirstSimulate struct {
	engine.Engine
	failed bool
}

func (f *failFirstSimulate) Simulate(c engine.Compiled) (engine.Result, error) {
	if !f.failed {
		f.failed = true
		return engine.Result{}, errors.New("simulator unavailable")
	}
	return f.Engine.Simulate(c)
}

func TestHitRate(t *testing.T) {
	var st engine.StackStats
	if st.HitRate() != 0 {
		t.Fatal("empty stats hit rate must be 0")
	}
	st = engine.StackStats{CompileCalls: 2, CompileHits: 1, SimulateCalls: 2, SimulateHits: 1}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", st.HitRate())
	}
}

// TestConcurrentRun exercises the stack from many goroutines; run with
// -race to validate the locking.
func TestConcurrentRun(t *testing.T) {
	s := newStack(t, true)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				if _, err := s.RunLatency(gemmOp(16 + (i+j)%4*16)); err != nil {
					errs <- err
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := s.Stats(); st.OpsSimulated != 64 {
		t.Fatalf("ops simulated = %d", st.OpsSimulated)
	}
}

// TestConcurrentSharedCache: stacks on many goroutines take one cache
// from a shared set and fill it together, each keeping its own counters;
// run with -race to validate the locking.
func TestConcurrentSharedCache(t *testing.T) {
	cfg := config.DefaultNPU()
	eng, err := npu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	caches := &engine.Caches{}
	got := make([]*engine.Cache, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := engine.NewStack(eng, true, caches.For(cfg))
			got[i] = s.Cache()
			for j := 0; j < 8; j++ {
				if _, err := s.RunLatency(gemmOp(16 + (i+j)%4*16)); err != nil {
					t.Error(err)
				}
			}
			if st := s.Stats(); st.OpsSimulated != 8 || st.SimulateCalls != 8 {
				t.Errorf("stack %d: own counters %+v", i, st)
			}
		}(i)
	}
	wg.Wait()
	for _, c := range got {
		if c != got[0] {
			t.Fatal("equal configs got different caches")
		}
	}
	if c, r := got[0].Sizes(); c != 4 || r != 4 {
		t.Fatalf("shared cache sizes %d/%d, want 4/4", c, r)
	}
}

func TestKindString(t *testing.T) {
	if engine.NPU.String() != "npu" || engine.PIM.String() != "pim" || engine.GPU.String() != "gpu" {
		t.Fatal("kind strings")
	}
}

// TestShapeDeterminesLatency is the contract that lets one Cache serve
// many stacks: on a given engine configuration, ops with equal ShapeID
// compile and simulate to the same latency whatever their Name, ReqID,
// Batched and Weights. It covers every operator kind each engine
// supports. The GPU reference model prices weight traffic from
// Op.Weights, which one model fixes per shape, so its stacks keep private
// caches; for it Weights is held fixed and shown to matter.
func TestShapeDeterminesLatency(t *testing.T) {
	npuEng, err := npu.New(config.DefaultNPU())
	if err != nil {
		t.Fatal(err)
	}
	pimEng, err := pim.New(config.DefaultPIM())
	if err != nil {
		t.Fatal(err)
	}
	gpuEng, err := gpu.New(config.DefaultGPU())
	if err != nil {
		t.Fatal(err)
	}
	var kinds []model.OpKind
	for k := model.OpKind(0); !strings.HasPrefix(k.String(), "OpKind("); k++ {
		kinds = append(kinds, k)
	}
	shapes := []model.Op{
		{Phase: model.Initiation, M: 64, N: 128, K: 96, Heads: 4, Context: 64},
		{Phase: model.Generation, M: 1, N: 513, K: 128, Heads: 8, Context: 513},
	}
	latency := func(e engine.Engine, op model.Op) simtime.Duration {
		t.Helper()
		c, err := e.Compile(op)
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Simulate(c)
		if err != nil {
			t.Fatal(err)
		}
		return r.Latency
	}
	for _, tc := range []struct {
		eng            engine.Engine
		ignoresWeights bool
	}{
		{npuEng, true},
		{pimEng, true},
		{gpuEng, false},
	} {
		supported := 0
		for _, kind := range kinds {
			if !tc.eng.Supports(kind) {
				continue
			}
			supported++
			for _, shape := range shapes {
				a := shape
				a.Kind, a.Name, a.ReqID, a.Batched = kind, "a", -1, true
				a.Weights = int64(a.N) * int64(a.K) * 2
				b := a
				b.Name, b.ReqID, b.Batched = "b.r6", 6, false
				if tc.ignoresWeights {
					b.Weights = 3*a.Weights + 1
				}
				if a.ShapeID() != b.ShapeID() {
					t.Fatalf("%s: variant changed the ShapeID", kind)
				}
				if la, lb := latency(tc.eng, a), latency(tc.eng, b); la != lb {
					t.Errorf("%s %s %s: latency %v vs %v for equal ShapeID",
						tc.eng.Kind(), kind, shape.Phase, la, lb)
				}
			}
		}
		if supported == 0 {
			t.Fatalf("%s supports no operator kind", tc.eng.Kind())
		}
	}

	// A weight-streaming GEMV: the GPU's cost follows Op.Weights.
	gemv := model.Op{Kind: model.OpFFN1, Phase: model.Generation, M: 1, N: 4096, K: 4096, Heads: 1}
	gemv.Weights = 4096 * 4096 * 2
	heavy := gemv
	heavy.Weights *= 4
	if latency(gpuEng, gemv) == latency(gpuEng, heavy) {
		t.Fatal("gpu latency no longer reads Op.Weights: vary Weights for it above")
	}
}
