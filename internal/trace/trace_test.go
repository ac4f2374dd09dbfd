package trace

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/simtime"
)

func item(kind engine.Kind, sub, seq int, d simtime.Duration, opKind model.OpKind, req int) Item {
	return Item{
		Op:       model.Op{Kind: opKind, Name: "op", ReqID: req, M: 1, N: 1, K: 1, Heads: 1},
		Engine:   kind.String(),
		Kind:     kind,
		Latency:  d,
		SubBatch: sub,
		Seq:      seq,
	}
}

func TestSerialOrder(t *testing.T) {
	items := []Item{
		item(engine.NPU, 0, 1, 10, model.OpProj, -1),
		item(engine.NPU, 0, 0, 5, model.OpQKVGen, -1),
	}
	s := Serial(items)
	if s.Makespan != 15 {
		t.Fatalf("makespan %v", s.Makespan)
	}
	if s.Items[0].Op.Kind != model.OpQKVGen || s.Items[0].Start != 0 || s.Items[1].Start != 5 {
		t.Fatal("serial order broken")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyOverlapsSubBatches: the headline property — two sub-batches
// alternating NPU and PIM work overlap, beating serial execution
// (NeuPIMs-style interleaving).
func TestGreedyOverlapsSubBatches(t *testing.T) {
	var items []Item
	for sb := 0; sb < 2; sb++ {
		items = append(items,
			item(engine.NPU, sb, 0, 100, model.OpQKVGen, -1),
			item(engine.PIM, sb, 1, 100, model.OpScore, sb),
			item(engine.NPU, sb, 2, 100, model.OpFFN1, -1),
		)
	}
	g := Greedy(items)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	serial := Serial(items)
	if g.Makespan >= serial.Makespan {
		t.Fatalf("greedy %v should beat serial %v", g.Makespan, serial.Makespan)
	}
	// Perfect interleave: NPU busy 400, PIM slots inside -> makespan 400+100.
	if g.Makespan > 500 {
		t.Fatalf("greedy makespan %v, want <= 500", g.Makespan)
	}
}

func TestGreedySingleChainEqualsSerial(t *testing.T) {
	items := []Item{
		item(engine.NPU, 0, 0, 7, model.OpQKVGen, -1),
		item(engine.PIM, 0, 1, 11, model.OpScore, 0),
		item(engine.NPU, 0, 2, 13, model.OpFFN1, -1),
	}
	g := Greedy(items)
	if g.Makespan != Serial(items).Makespan {
		t.Fatalf("single chain: greedy %v vs serial %v", g.Makespan, Serial(items).Makespan)
	}
}

func TestGreedyEmpty(t *testing.T) {
	g := Greedy(nil)
	if g.Makespan != 0 || len(g.Items) != 0 {
		t.Fatal("empty schedule")
	}
}

func TestUtilization(t *testing.T) {
	items := []Item{
		item(engine.NPU, 0, 0, 100, model.OpQKVGen, -1),
		item(engine.PIM, 1, 0, 50, model.OpScore, 0),
	}
	g := Greedy(items)
	if u := g.Utilization(engine.NPU); u != 1.0 {
		t.Fatalf("NPU utilization %v (makespan %v)", u, g.Makespan)
	}
	if u := g.Utilization(engine.PIM); u != 0.5 {
		t.Fatalf("PIM utilization %v", u)
	}
	var empty Schedule
	if empty.Utilization(engine.NPU) != 0 {
		t.Fatal("empty utilization")
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	bad := Schedule{
		Items: []Scheduled{
			{Item: item(engine.NPU, 0, 0, 10, model.OpQKVGen, -1), Start: 0, End: 10},
			{Item: item(engine.NPU, 1, 0, 10, model.OpFFN1, -1), Start: 5, End: 15},
		},
	}
	if bad.Validate() == nil {
		t.Fatal("overlap on one engine must fail validation")
	}
}

func TestValidateCatchesOrderViolation(t *testing.T) {
	bad := Schedule{
		Items: []Scheduled{
			{Item: item(engine.NPU, 0, 1, 10, model.OpFFN1, -1), Start: 0, End: 10},
			{Item: item(engine.PIM, 0, 0, 10, model.OpScore, 0), Start: 5, End: 15},
		},
	}
	if bad.Validate() == nil {
		t.Fatal("program-order violation must fail validation")
	}
}

func TestSplitSegments(t *testing.T) {
	items := []Item{
		item(engine.NPU, 0, 0, 5, model.OpLayerNorm, -1),
		item(engine.NPU, 0, 1, 10, model.OpQKVGen, -1),
		item(engine.PIM, 0, 2, 3, model.OpScore, 0),
		item(engine.PIM, 0, 3, 1, model.OpSoftmax, 0),
		item(engine.PIM, 0, 4, 4, model.OpAttend, 0),
		item(engine.PIM, 0, 5, 2, model.OpScore, 1),
		item(engine.PIM, 0, 6, 1, model.OpSoftmax, 1),
		item(engine.PIM, 0, 7, 3, model.OpAttend, 1),
		item(engine.NPU, 0, 8, 20, model.OpProj, -1),
		item(engine.NPU, 0, 9, 30, model.OpFFN1, -1),
	}
	seg := SplitSegmentsInto(items, map[int]simtime.Duration{0: 99, 7: 1})
	if seg.Pre != 15 {
		t.Fatalf("pre %v", seg.Pre)
	}
	if len(seg.Attn) != 2 || seg.Attn[0] != 8 || seg.Attn[1] != 6 {
		t.Fatalf("attn %v (the reused map must be cleared first)", seg.Attn)
	}
	if seg.Post != 50 {
		t.Fatalf("post %v", seg.Post)
	}
}

// Property: greedy makespan is sandwiched between the critical chain and
// the serial sum, and the schedule is always valid.
func TestGreedyBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		nChains := 1 + rng.Intn(4)
		var items []Item
		var total simtime.Duration
		chainSum := map[int]simtime.Duration{}
		for c := 0; c < nChains; c++ {
			n := 1 + rng.Intn(6)
			for i := 0; i < n; i++ {
				kind := engine.NPU
				if rng.Intn(2) == 0 {
					kind = engine.PIM
				}
				d := simtime.Duration(1 + rng.Intn(100))
				items = append(items, item(kind, c, i, d, model.OpQKVGen, -1))
				total += d
				chainSum[c] += d
			}
		}
		g := Greedy(items)
		if g.Validate() != nil {
			return false
		}
		var longest simtime.Duration
		for _, d := range chainSum {
			if d > longest {
				longest = d
			}
		}
		return g.Makespan >= longest && g.Makespan <= total
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
