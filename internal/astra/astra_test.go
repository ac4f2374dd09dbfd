package astra

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/simtime"
)

const us = simtime.Microsecond

func TestEmptyGraph(t *testing.T) {
	r, err := new(Executor).Execute(graph.New())
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 0 {
		t.Fatal("empty graph must take no time")
	}
}

func TestChainSums(t *testing.T) {
	g := graph.New()
	a := g.AddCompute("a", 0, 10*us)
	b := g.AddCompute("b", 0, 20*us, a)
	g.AddCompute("c", 0, 30*us, b)
	r, err := new(Executor).Execute(g)
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 60*us {
		t.Fatalf("makespan %v", r.Makespan)
	}
	if r.Timings[1].Start != simtime.Time(10*us) || r.Timings[2].End != simtime.Time(60*us) {
		t.Fatal("timings wrong")
	}
}

// TestIndependentDevicesOverlap: work on different devices runs in
// parallel.
func TestIndependentDevicesOverlap(t *testing.T) {
	g := graph.New()
	for dev := 0; dev < 4; dev++ {
		g.AddCompute("w", dev, 100*us)
	}
	r, _ := new(Executor).Execute(g)
	if r.Makespan != 100*us {
		t.Fatalf("parallel makespan %v", r.Makespan)
	}
}

// TestSameDeviceSerializes: two nodes on one device cannot overlap.
func TestSameDeviceSerializes(t *testing.T) {
	g := graph.New()
	g.AddCompute("a", 0, 100*us)
	g.AddCompute("b", 0, 100*us)
	r, _ := new(Executor).Execute(g)
	if r.Makespan != 200*us {
		t.Fatalf("serialized makespan %v", r.Makespan)
	}
}

// TestCommOverlapsCompute: a network transfer and a compute span on the
// same device use different resources and overlap — the ASTRA-sim
// behaviour the resource classes exist for.
func TestCommOverlapsCompute(t *testing.T) {
	g := graph.New()
	g.AddCompute("compute", 0, 100*us)
	g.AddP2P("xfer", 0, 1, 100*us, 1<<20)
	r, _ := new(Executor).Execute(g)
	if r.Makespan != 100*us {
		t.Fatalf("comm should overlap compute: %v", r.Makespan)
	}
}

// TestCollectiveOccupiesAllPorts: an all-reduce blocks every member's
// network port but not their compute units.
func TestCollectiveOccupiesAllPorts(t *testing.T) {
	g := graph.New()
	g.AddAllReduce("ar", []int{0, 1, 2, 3}, 50*us, 1<<20)
	g.AddP2P("xfer", 0, 1, 50*us, 1<<10)
	r, _ := new(Executor).Execute(g)
	// The p2p shares ports 0,1 with the collective: must serialise.
	if r.Makespan != 100*us {
		t.Fatalf("port contention broken: %v", r.Makespan)
	}
}

func TestDependencyAcrossDevices(t *testing.T) {
	g := graph.New()
	a := g.AddCompute("s0", 0, 30*us)
	x := g.AddP2P("xfer", 0, 1, 10*us, 1<<10, a)
	g.AddCompute("s1", 1, 30*us, x)
	r, _ := new(Executor).Execute(g)
	if r.Makespan != 70*us {
		t.Fatalf("pipeline chain %v", r.Makespan)
	}
}

// TestPipelining: a two-stage pipeline over two work items overlaps stage
// 0 of item 2 with stage 1 of item 1.
func TestPipelining(t *testing.T) {
	g := graph.New()
	a1 := g.AddCompute("a1", 0, 50*us)
	b1 := g.AddCompute("b1", 1, 50*us, a1)
	a2 := g.AddCompute("a2", 0, 50*us, a1)
	g.AddCompute("b2", 1, 50*us, b1, a2)
	r, _ := new(Executor).Execute(g)
	if r.Makespan != 150*us {
		t.Fatalf("pipelined makespan %v, want 150us", r.Makespan)
	}
}

func TestDeterminism(t *testing.T) {
	g := buildRandomDAG(rand.New(rand.NewSource(5)), 50)
	r1, err := new(Executor).Execute(g)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := new(Executor).Execute(g)
	if r1.Makespan != r2.Makespan {
		t.Fatal("nondeterministic makespan")
	}
	for i := range r1.Timings {
		if r1.Timings[i] != r2.Timings[i] {
			t.Fatal("nondeterministic timings")
		}
	}
}

func TestInvalidGraphRejected(t *testing.T) {
	g := graph.New()
	g.Nodes = append(g.Nodes, &graph.Node{ID: 0, Kind: graph.Compute, Duration: 1})
	if _, err := new(Executor).Execute(g); err == nil {
		t.Fatal("invalid graph must be rejected")
	}
}

func TestCriticalPath(t *testing.T) {
	g := graph.New()
	a := g.AddCompute("a", 0, 10*us)
	b := g.AddCompute("b", 1, 100*us)
	c := g.AddCompute("c", 0, 10*us, a, b)
	r, _ := new(Executor).Execute(g)
	path := CriticalPath(g, r)
	if len(path) != 2 || path[0] != b || path[1] != c {
		t.Fatalf("critical path %v", path)
	}
	if CriticalPath(graph.New(), Result{}) != nil {
		t.Fatal("empty critical path")
	}
}

func buildRandomDAG(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		dev := rng.Intn(4)
		d := simtime.Duration(1+rng.Intn(50)) * us
		var deps []int
		for j := 0; j < i && len(deps) < 3; j++ {
			if rng.Intn(5) == 0 {
				deps = append(deps, rng.Intn(i))
			}
		}
		if rng.Intn(3) == 0 && i > 0 {
			g.AddP2P("x", dev, (dev+1)%4, d, 1024, deps...)
		} else {
			g.AddCompute("c", dev, d, deps...)
		}
	}
	return g
}

// TestMakespanBoundsProperty: makespan is at least the critical-path time
// and at most the serial sum of all durations.
func TestMakespanBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := func() bool {
		g := buildRandomDAG(rng, 1+rng.Intn(60))
		r, err := new(Executor).Execute(g)
		if err != nil {
			return false
		}
		var total simtime.Duration
		for _, n := range g.Nodes {
			total += n.Duration
		}
		// Critical path lower bound.
		longest := longestPath(g)
		return r.Makespan >= longest && r.Makespan <= total
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func longestPath(g *graph.Graph) simtime.Duration {
	dist := make([]simtime.Duration, len(g.Nodes))
	var best simtime.Duration
	for _, n := range g.Nodes {
		d := n.Duration
		for _, dep := range n.Deps {
			if dist[dep]+n.Duration > d {
				d = dist[dep] + n.Duration
			}
		}
		dist[n.ID] = d
		if d > best {
			best = d
		}
	}
	return best
}
