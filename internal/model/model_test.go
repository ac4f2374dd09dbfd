package model

import (
	"strings"
	"testing"
)

func TestLookupKnownModels(t *testing.T) {
	for _, name := range Names() {
		cfg, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Validate(%s): %v", name, err)
		}
		if cfg.Name != name {
			t.Fatalf("name mismatch: %s vs %s", cfg.Name, name)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("nope"); err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Fatalf("want unknown-model error, got %v", err)
	}
}

func TestMustLookupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustLookup on unknown model must panic")
		}
	}()
	MustLookup("nope")
}

// TestParamCounts checks parameter counts against the published sizes;
// the approximation (tied LM head, no position embeddings) should land
// within 5% of the nominal size.
func TestParamCounts(t *testing.T) {
	cases := map[string]float64{
		"gpt3-7b":   6.7e9,
		"gpt3-13b":  13e9,
		"gpt3-30b":  30e9,
		"gpt3-175b": 175e9,
		"llama-7b":  6.7e9,
		"llama-13b": 13e9,
	}
	for name, want := range cases {
		got := float64(MustLookup(name).Params())
		ratio := got / want
		if ratio < 0.90 || ratio > 1.10 {
			t.Errorf("%s: params %.2fB, want ~%.2fB (ratio %.2f)", name, got/1e9, want/1e9, ratio)
		}
	}
}

func TestWeightAndKVBytes(t *testing.T) {
	cfg := MustLookup("gpt3-7b")
	if cfg.WeightBytes() != cfg.Params()*2 {
		t.Fatal("fp16 weights must be 2 bytes per param")
	}
	// 2 (K,V) x layers x hidden x 2 bytes = 2*32*4096*2 = 512 KiB/token.
	if got := cfg.KVBytesPerToken(); got != 524288 {
		t.Fatalf("KVBytesPerToken = %d", got)
	}
}

func TestValidateErrors(t *testing.T) {
	base := MustLookup("gpt2")
	mutations := []func(*Config){
		func(c *Config) { c.Name = "" },
		func(c *Config) { c.Layers = 0 },
		func(c *Config) { c.Hidden = -1 },
		func(c *Config) { c.Heads = 0 },
		func(c *Config) { c.Hidden = 100; c.Heads = 3 }, // not divisible
		func(c *Config) { c.FFN = 0 },
		func(c *Config) { c.Vocab = 0 },
		func(c *Config) { c.MaxSeqLen = 0 },
		func(c *Config) { c.DTypeBytes = 0 },
	}
	for i, mut := range mutations {
		c := base
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: want validation error", i)
		}
	}
}

func TestSplitTensorParallel(t *testing.T) {
	cfg := MustLookup("gpt3-30b") // 56 heads
	// Uneven degrees are allowed (padded sharding).
	for _, tp := range []int{1, 4, 16, 64, 2048} {
		if err := cfg.SplitTensorParallel(tp); err != nil {
			t.Errorf("tp=%d: %v", tp, err)
		}
	}
	if err := cfg.SplitTensorParallel(0); err == nil {
		t.Fatal("tp=0 must fail")
	}
}

func TestCeilShard(t *testing.T) {
	cases := []struct{ dim, tp, want int }{
		{56, 4, 14}, {56, 16, 4}, {56, 64, 1}, {96, 2048, 1}, {10, 3, 4},
	}
	for _, c := range cases {
		if got := ceilShard(c.dim, c.tp); got != c.want {
			t.Errorf("ceilShard(%d,%d) = %d, want %d", c.dim, c.tp, got, c.want)
		}
	}
}

func TestHeadDim(t *testing.T) {
	if MustLookup("gpt3-7b").HeadDim() != 128 {
		t.Fatal("gpt3-7b head dim must be 128")
	}
}
