package network

import (
	"testing"

	"repro/internal/config"
	"repro/internal/simtime"
)

func build(t *testing.T, mode Parallelism, n, g int) Topology {
	t.Helper()
	topo, err := Build(mode, n, g, config.DefaultLink(), config.DefaultLink())
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestParallelismString(t *testing.T) {
	for p, want := range map[Parallelism]string{Tensor: "tensor", Pipeline: "pipeline", Hybrid: "hybrid"} {
		if got := p.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestBuildModes(t *testing.T) {
	tp := build(t, Tensor, 8, 0)
	if tp.Stages != 1 || tp.TP != 8 {
		t.Fatalf("tensor: %+v", tp)
	}
	pp := build(t, Pipeline, 8, 0)
	if pp.Stages != 8 || pp.TP != 1 {
		t.Fatalf("pipeline: %+v", pp)
	}
	hy := build(t, Hybrid, 16, 4)
	if hy.Stages != 4 || hy.TP != 4 {
		t.Fatalf("hybrid: %+v", hy)
	}
}

func TestBuildErrors(t *testing.T) {
	link := config.DefaultLink()
	if _, err := Build(Tensor, 0, 0, link, link); err == nil {
		t.Fatal("zero NPUs must fail")
	}
	if _, err := Build(Hybrid, 16, 0, link, link); err == nil {
		t.Fatal("hybrid without groups must fail")
	}
	if _, err := Build(Hybrid, 16, 5, link, link); err == nil {
		t.Fatal("indivisible groups must fail")
	}
	bad := link
	bad.BandwidthBytes = 0
	if _, err := Build(Tensor, 4, 0, bad, link); err == nil {
		t.Fatal("bad link must fail")
	}
}

func TestNodeLayout(t *testing.T) {
	topo := build(t, Hybrid, 8, 2) // 2 stages x TP4
	if topo.Nodes() != 8 || topo.NPUNodes() != 8 {
		t.Fatal("node counts")
	}
	s1 := topo.StageNodes(1)
	if len(s1) != 4 || s1[0] != 4 || s1[3] != 7 {
		t.Fatalf("stage 1 nodes %v", s1)
	}
	topo.PIMPool = 3
	if topo.Nodes() != 11 {
		t.Fatal("pim pool nodes")
	}
	pims := topo.PIMNodes()
	if len(pims) != 3 || pims[0] != 8 {
		t.Fatalf("pim ids %v", pims)
	}
}

func TestValidate(t *testing.T) {
	topo := build(t, Tensor, 4, 0)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	topo.TP = 0
	if topo.Validate() == nil {
		t.Fatal("bad topology must fail")
	}
	topo = build(t, Tensor, 4, 0)
	topo.PIMPool = -1
	if topo.Validate() == nil {
		t.Fatal("negative pool must fail")
	}
}

func TestP2P(t *testing.T) {
	topo := build(t, Tensor, 2, 0)
	// 64 MB over 64 GB/s = 1 ms, plus 100 ns latency.
	d := topo.P2P(64 << 20)
	want := 100*simtime.Nanosecond + simtime.Transfer(64<<20, 64e9)
	if d != want {
		t.Fatalf("P2P = %v, want %v", d, want)
	}
	if topo.P2P(0) != 100*simtime.Nanosecond {
		t.Fatal("empty transfer should cost latency only")
	}
}

func TestAllReduce(t *testing.T) {
	topo := build(t, Tensor, 4, 0)
	if topo.AllReduce(1<<20, 1) != 0 {
		t.Fatal("n=1 all-reduce must be free")
	}
	if topo.AllReduce(0, 4) != 0 {
		t.Fatal("empty all-reduce must be free")
	}
	small := topo.AllReduce(1<<20, 4)
	large := topo.AllReduce(4<<20, 4)
	if large <= small {
		t.Fatal("all-reduce must scale with payload")
	}
	// Ring: 2(n-1) steps; latency term grows with n.
	few := topo.AllReduce(1<<10, 2)
	many := topo.AllReduce(1<<10, 64)
	if many <= few {
		t.Fatal("latency-bound all-reduce must grow with group size")
	}
}

func TestAllGather(t *testing.T) {
	topo := build(t, Tensor, 4, 0)
	if topo.AllGather(1<<20, 1) != 0 {
		t.Fatal("n=1 all-gather must be free")
	}
	if topo.AllGather(1<<20, 4) <= 0 {
		t.Fatal("all-gather must cost time")
	}
}

func TestHostTransfer(t *testing.T) {
	topo := build(t, Tensor, 2, 0)
	if topo.HostTransfer(1<<30) <= topo.HostTransfer(1<<20) {
		t.Fatal("host transfer must scale")
	}
}

func TestString(t *testing.T) {
	topo := build(t, Hybrid, 16, 4)
	if topo.String() != "TP4 PP4" {
		t.Fatalf("String = %q", topo.String())
	}
	topo.PIMPool = 2
	if topo.String() != "TP4 PP4 +PIM2" {
		t.Fatalf("String = %q", topo.String())
	}
}
