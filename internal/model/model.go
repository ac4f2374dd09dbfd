// Package model describes decoder-based transformer LLM architectures and
// builds the per-iteration operator workloads that execution engines
// simulate.
//
// The package covers the models used throughout the paper's evaluation
// (GPT-3 and LLaMA families, 7B-175B) and knows how to derive parameter
// counts, weight footprints, KV-cache footprints, and the operator graph of
// a transformer block in both inference phases (initiation and generation).
package model

import (
	"fmt"
	"sort"
)

// Config describes a decoder-only transformer architecture.
type Config struct {
	Name       string // e.g. "gpt3-7b"
	Layers     int    // number of transformer blocks
	Hidden     int    // model (embedding) dimension
	Heads      int    // attention heads
	FFN        int    // feed-forward inner dimension
	Vocab      int    // vocabulary size
	MaxSeqLen  int    // maximum supported sequence length
	DTypeBytes int    // bytes per parameter/activation element (2 = fp16)
	GatedFFN   bool   // LLaMA-style SwiGLU feed-forward (gate+up+down)

	// Mixture-of-experts extension (Section V-B of the paper): when
	// Experts > 0 the feed-forward network is replicated per expert and a
	// gating network routes each token to TopK experts.
	Experts int
	TopK    int
}

// IsMoE reports whether the model uses mixture-of-experts feed-forward.
func (c Config) IsMoE() bool { return c.Experts > 0 }

// HeadDim returns the per-head dimension.
func (c Config) HeadDim() int { return c.Hidden / c.Heads }

// Params returns the approximate parameter count of the model.
func (c Config) Params() int64 {
	h := int64(c.Hidden)
	ffnMats := int64(2) // up + down projections
	if c.GatedFFN {
		ffnMats = 3 // gate + up + down (SwiGLU)
	}
	ffnCopies := int64(1)
	var gate int64
	if c.IsMoE() {
		ffnCopies = int64(c.Experts)
		gate = h * int64(c.Experts)
	}
	perBlock := 4*h*h + // QKV generation (3 h^2) + attention output projection (h^2)
		ffnCopies*ffnMats*h*int64(c.FFN) + gate + // feed-forward projections (+ router)
		4*h // two LayerNorms (scale + bias each)
	embed := int64(c.Vocab) * h // token embedding (LM head is tied)
	return int64(c.Layers)*perBlock + embed
}

// WeightBytes returns the total model weight footprint in bytes.
func (c Config) WeightBytes() int64 { return c.Params() * int64(c.DTypeBytes) }

// KVBytesPerToken returns the bytes of key+value cache one token occupies
// across all layers.
func (c Config) KVBytesPerToken() int64 {
	// One K and one V vector of Hidden elements per layer.
	return 2 * int64(c.Layers) * int64(c.Hidden) * int64(c.DTypeBytes)
}

// Validate reports an error if the configuration is internally inconsistent.
func (c Config) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("model: empty name")
	case c.Layers <= 0:
		return fmt.Errorf("model %s: layers must be positive, got %d", c.Name, c.Layers)
	case c.Hidden <= 0:
		return fmt.Errorf("model %s: hidden must be positive, got %d", c.Name, c.Hidden)
	case c.Heads <= 0:
		return fmt.Errorf("model %s: heads must be positive, got %d", c.Name, c.Heads)
	case c.Hidden%c.Heads != 0:
		return fmt.Errorf("model %s: hidden %d not divisible by heads %d", c.Name, c.Hidden, c.Heads)
	case c.FFN <= 0:
		return fmt.Errorf("model %s: ffn must be positive, got %d", c.Name, c.FFN)
	case c.Vocab <= 0:
		return fmt.Errorf("model %s: vocab must be positive, got %d", c.Name, c.Vocab)
	case c.MaxSeqLen <= 0:
		return fmt.Errorf("model %s: max sequence length must be positive, got %d", c.Name, c.MaxSeqLen)
	case c.DTypeBytes <= 0:
		return fmt.Errorf("model %s: dtype bytes must be positive, got %d", c.Name, c.DTypeBytes)
	case c.Experts < 0:
		return fmt.Errorf("model %s: negative expert count %d", c.Name, c.Experts)
	case c.Experts > 0 && (c.TopK <= 0 || c.TopK > c.Experts):
		return fmt.Errorf("model %s: top-k %d must be in [1, %d experts]", c.Name, c.TopK, c.Experts)
	}
	return nil
}

// SplitTensorParallel reports an error if the model cannot be split across
// the given tensor-parallel degree. Uneven head or FFN counts are allowed:
// shards are padded to the ceiling share, as Megatron-style deployments do
// (the paper sweeps GPT3-30B, 56 heads, up to TP64, and GPT3-175B up to
// TP2048).
func (c Config) SplitTensorParallel(tp int) error {
	if tp <= 0 {
		return fmt.Errorf("model %s: tensor parallel degree must be positive, got %d", c.Name, tp)
	}
	return nil
}

// ceilShard returns the padded per-worker share of dim under tp-way
// sharding, never below 1.
func ceilShard(dim, tp int) int {
	s := (dim + tp - 1) / tp
	if s < 1 {
		return 1
	}
	return s
}

// registry of named model configurations, matching the families evaluated
// in the paper (GPT-3 appendix table of Brown et al. and LLaMA-1 sizes).
var registry = map[string]Config{
	"gpt2": {
		Name: "gpt2", Layers: 12, Hidden: 768, Heads: 12, FFN: 3072,
		Vocab: 50257, MaxSeqLen: 1024, DTypeBytes: 2,
	},
	"gpt3-7b": {
		Name: "gpt3-7b", Layers: 32, Hidden: 4096, Heads: 32, FFN: 16384,
		Vocab: 50257, MaxSeqLen: 2048, DTypeBytes: 2,
	},
	"gpt3-13b": {
		Name: "gpt3-13b", Layers: 40, Hidden: 5120, Heads: 40, FFN: 20480,
		Vocab: 50257, MaxSeqLen: 2048, DTypeBytes: 2,
	},
	"gpt3-30b": {
		Name: "gpt3-30b", Layers: 48, Hidden: 7168, Heads: 56, FFN: 28672,
		Vocab: 50257, MaxSeqLen: 2048, DTypeBytes: 2,
	},
	"gpt3-175b": {
		Name: "gpt3-175b", Layers: 96, Hidden: 12288, Heads: 96, FFN: 49152,
		Vocab: 50257, MaxSeqLen: 2048, DTypeBytes: 2,
	},
	"llama-7b": {
		Name: "llama-7b", Layers: 32, Hidden: 4096, Heads: 32, FFN: 11008,
		Vocab: 32000, MaxSeqLen: 2048, DTypeBytes: 2, GatedFFN: true,
	},
	"llama-13b": {
		Name: "llama-13b", Layers: 40, Hidden: 5120, Heads: 40, FFN: 13824,
		Vocab: 32000, MaxSeqLen: 2048, DTypeBytes: 2, GatedFFN: true,
	},
	// moe-8x7b approximates a Mixtral-class sparse model: 8 experts with
	// top-2 routing over a LLaMA-7B-like backbone.
	"moe-8x7b": {
		Name: "moe-8x7b", Layers: 32, Hidden: 4096, Heads: 32, FFN: 14336,
		Vocab: 32000, MaxSeqLen: 2048, DTypeBytes: 2, GatedFFN: true,
		Experts: 8, TopK: 2,
	},
	"llama-30b": {
		Name: "llama-30b", Layers: 60, Hidden: 6656, Heads: 52, FFN: 17920,
		Vocab: 32000, MaxSeqLen: 2048, DTypeBytes: 2, GatedFFN: true,
	},
}

// Lookup returns the named model configuration.
func Lookup(name string) (Config, error) {
	cfg, ok := registry[name]
	if !ok {
		return Config{}, fmt.Errorf("model: unknown model %q (known: %v)", name, Names())
	}
	return cfg, nil
}

// MustLookup is Lookup that panics on unknown names; for tests and examples.
func MustLookup(name string) Config {
	cfg, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return cfg
}

// Names returns the registered model names in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
