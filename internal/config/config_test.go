package config

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDefaultsValidate(t *testing.T) {
	if err := DefaultNPU().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := DefaultPIM().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := DefaultGPU().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := DefaultLink().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTableISpec pins the Table I hardware specification.
func TestTableISpec(t *testing.T) {
	n := DefaultNPU()
	if n.SystolicRows != 128 || n.SystolicCols != 128 {
		t.Fatalf("systolic array %dx%d, want 128x128", n.SystolicRows, n.SystolicCols)
	}
	if n.VectorLanes != 128 {
		t.Fatalf("vector unit %d, want 128", n.VectorLanes)
	}
	if n.FrequencyHz != 1e9 {
		t.Fatalf("npu frequency %g, want 1GHz", n.FrequencyHz)
	}
	if n.MemoryBytes != 24*GB {
		t.Fatalf("npu memory %d, want 24GB", n.MemoryBytes)
	}
	if n.MemoryBWBytes != 936e9 {
		t.Fatalf("npu bandwidth %g, want 936GB/s", n.MemoryBWBytes)
	}

	p := DefaultPIM()
	if p.BanksPerBankgroup != 4 || p.BanksPerChannel != 32 {
		t.Fatalf("pim banks %d/%d, want 4/32", p.BanksPerBankgroup, p.BanksPerChannel)
	}
	if p.FrequencyHz != 1e9 || p.MemoryBytes != 32*GB || p.MemoryBWBytes != 1e12 {
		t.Fatal("pim spec deviates from Table I")
	}

	l := DefaultLink()
	if l.BandwidthBytes != 64e9 || l.LatencyNs != 100 {
		t.Fatalf("link %g B/s %g ns, want PCIe4 x16 64GB/s 100ns", l.BandwidthBytes, l.LatencyNs)
	}
}

func TestNPUPeak(t *testing.T) {
	// 128x128 MACs at 1 GHz = 32.768 TFLOPs.
	if got := DefaultNPU().PeakFLOPs(); got != 2*128*128*1e9 {
		t.Fatalf("peak = %g", got)
	}
}

func TestPIMDerived(t *testing.T) {
	p := DefaultPIM()
	if p.TotalBanks() != 32*16 {
		t.Fatalf("banks = %d", p.TotalBanks())
	}
	if p.PeakFLOPs() <= 0 {
		t.Fatal("peak must be positive")
	}
}

func TestValidationErrors(t *testing.T) {
	n := DefaultNPU()
	n.SystolicRows = 0
	if n.Validate() == nil {
		t.Fatal("bad npu must fail")
	}
	p := DefaultPIM()
	p.Channels = 0
	if p.Validate() == nil {
		t.Fatal("bad pim must fail")
	}
	g := DefaultGPU()
	g.GEMMEfficiency = 1.5
	if g.Validate() == nil {
		t.Fatal("bad gpu must fail")
	}
	l := DefaultLink()
	l.BandwidthBytes = 0
	if l.Validate() == nil {
		t.Fatal("bad link must fail")
	}
	l = DefaultLink()
	l.LatencyNs = -1
	if l.Validate() == nil {
		t.Fatal("negative latency must fail")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "npu.json")
	want := DefaultNPU()
	want.Name = "custom"
	want.SRAMBytes = 32 << 20
	data, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var got NPUConfig
	if err := LoadJSON(path, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, want)
	}
}

func TestLoadJSONErrors(t *testing.T) {
	var cfg NPUConfig
	if err := LoadJSON("/nonexistent/x.json", &cfg); err == nil {
		t.Fatal("missing file must fail")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := LoadJSON(bad, &cfg); err == nil {
		t.Fatal("malformed json must fail")
	}

	for _, c := range []struct{ name, body, want string }{
		{"unknown key", `{"name": "x", "sram_mb": 32}`, `unknown field "sram_mb"`},
		{"trailing data", `{"name": "x"} {"name": "y"}`, "after the JSON object"},
		{"trailing garbage", `{"name": "x"} nope`, "after the JSON object"},
	} {
		path := filepath.Join(dir, "case.json")
		if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		err := LoadJSON(path, &cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
	path := filepath.Join(dir, "ok.json")
	if err := os.WriteFile(path, []byte("{\"sram_bytes\": 1024}\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg = NPUConfig{}
	if err := LoadJSON(path, &cfg); err != nil || cfg.SRAMBytes != 1024 {
		t.Fatalf("trailing whitespace must load: %+v, %v", cfg, err)
	}
}
