package model

import (
	"fmt"
	"strconv"
)

// Seq describes one request's contribution to an iteration batch.
type Seq struct {
	ReqID     int
	NewTokens int   // tokens processed this iteration (prompt length or 1)
	Context   int   // tokens already resident in the KV cache
	Phase     Phase // Initiation when NewTokens covers the prompt
}

// TotalLen returns the sequence length after this iteration completes.
func (s Seq) TotalLen() int { return s.Context + s.NewTokens }

// IterationOps is the operator workload of one serving iteration under
// selective batching (Orca): token-parallel operators (QKV, FFN, LayerNorm,
// projections) are batched across every sequence, while the attention core
// is emitted per request because each request attends over a different
// context length.
//
// Block holds the operators of ONE transformer block; the engines exploit
// model-redundancy reuse by simulating a single block and replicating it
// Layers times, and the graph converter replicates it per pipeline stage.
type IterationOps struct {
	Model  Config
	TP     int // tensor-parallel degree the shapes were built for
	Layers int // transformer blocks in the model

	Embed Op   // token embedding (runs once)
	Block []Op // one transformer block's operators, in execution order
	Head  Op   // LM head (runs once, on the last token of each sequence)

	TotalNewTokens int // sum of NewTokens over the batch
	Seqs           []Seq

	// attnNames caches the per-request attention operator names, which
	// are re-minted once per generated token for a request's whole
	// lifetime. The cache lives (and is freed) with this IterationOps,
	// so reused instances stay allocation-free in steady state without a
	// process-global table growing across runs; it is additionally
	// capped (entries for long-finished requests are dead weight on
	// million-request traces) and simply reset at the cap — in-flight
	// requests re-mint on the next batch.
	attnNames map[int]attnNameTriple
}

type attnNameTriple struct{ score, softmax, attend string }

// attnNameCacheLimit bounds attnNames; the concurrently in-flight set
// is KV-bounded and far smaller, so resets are rare and cheap.
const attnNameCacheLimit = 1 << 16

// attnNamesFor returns the request's cached attention op names.
func (it *IterationOps) attnNamesFor(id int) attnNameTriple {
	if nm, ok := it.attnNames[id]; ok {
		return nm
	}
	if it.attnNames == nil {
		it.attnNames = map[int]attnNameTriple{}
	} else if len(it.attnNames) >= attnNameCacheLimit {
		clear(it.attnNames)
	}
	nm := attnNameTriple{
		score:   reqOpName("Score.r", id),
		softmax: reqOpName("Softmax.r", id),
		attend:  reqOpName("Attend.r", id),
	}
	it.attnNames[id] = nm
	return nm
}

// BuildIteration constructs the operator workload for one iteration over
// the given batch. tp is the tensor-parallel degree: weight matrices and
// attention heads are partitioned tp ways, so the returned shapes describe
// the work of a single tensor-parallel worker.
func BuildIteration(cfg Config, batch []Seq, tp int) (*IterationOps, error) {
	it := &IterationOps{}
	if err := BuildIterationInto(it, cfg, batch, tp); err != nil {
		return nil, err
	}
	return it, nil
}

// BuildIterationInto is BuildIteration building into a reusable
// IterationOps: the operator and sequence storage of it is recycled, so
// iteration-driving hot loops build each batch's workload without
// allocating. On error it is left in an undefined state.
func BuildIterationInto(it *IterationOps, cfg Config, batch []Seq, tp int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := cfg.SplitTensorParallel(tp); err != nil {
		return err
	}
	if len(batch) == 0 {
		return fmt.Errorf("model: empty batch")
	}
	totalNew := 0
	for i, s := range batch {
		if s.NewTokens <= 0 {
			return fmt.Errorf("model: batch[%d] (req %d) has NewTokens=%d", i, s.ReqID, s.NewTokens)
		}
		if s.Context < 0 {
			return fmt.Errorf("model: batch[%d] (req %d) has negative context", i, s.ReqID)
		}
		if s.TotalLen() > cfg.MaxSeqLen {
			return fmt.Errorf("model: batch[%d] (req %d) length %d exceeds max %d",
				i, s.ReqID, s.TotalLen(), cfg.MaxSeqLen)
		}
		totalNew += s.NewTokens
	}

	d := cfg.DTypeBytes
	h := cfg.Hidden
	headDim := cfg.HeadDim()
	// Padded ceiling shards: every worker carries the largest share, as in
	// padded Megatron sharding of uneven head/FFN counts.
	localHeads := ceilShard(cfg.Heads, tp)
	qkvN := 3 * ceilShard(h, tp)
	projK := ceilShard(h, tp)
	ffnShard := ceilShard(cfg.FFN, tp)
	ffn1N := ffnShard
	if cfg.GatedFFN {
		ffn1N = 2 * ffnShard
	}
	vocabShard := ceilShard(cfg.Vocab, tp)
	phase := batchPhase(batch)

	*it = IterationOps{
		Model:          cfg,
		TP:             tp,
		Layers:         cfg.Layers,
		TotalNewTokens: totalNew,
		Seqs:           append(it.Seqs[:0], batch...),
		Block:          it.Block[:0],
		attnNames:      it.attnNames,
	}

	it.Embed = Op{
		Kind: OpEmbed, Name: "Embed", Phase: phase,
		M: totalNew, N: h, K: 1, Heads: 1, ReqID: -1, Batched: true,
	}

	block := it.Block
	if cap(block) < 8+3*len(batch) {
		block = make([]Op, 0, 8+3*len(batch))
	}
	block = append(block, Op{
		Kind: OpLayerNorm, Name: "LayerNorm1", Phase: phase,
		M: totalNew, N: h, K: 1, Heads: 1, ReqID: -1, Batched: true,
	})
	block = append(block, Op{
		Kind: OpQKVGen, Name: "QKVGen", Phase: phase,
		M: totalNew, N: qkvN, K: h, Heads: 1, ReqID: -1, Batched: true,
		Weights: int64(qkvN) * int64(h) * int64(d),
	})
	// Attention core: one Score/Softmax/Attend triple per request, covering
	// this worker's localHeads heads (selective batching).
	for _, s := range batch {
		ctx := s.TotalLen()
		nm := it.attnNamesFor(s.ReqID)
		block = append(block,
			Op{
				Kind: OpScore, Name: nm.score, Phase: phase,
				M: s.NewTokens, N: ctx, K: headDim,
				Heads: localHeads, ReqID: s.ReqID, Context: ctx,
			},
			Op{
				Kind: OpSoftmax, Name: nm.softmax, Phase: phase,
				M: s.NewTokens, N: ctx, K: 1,
				Heads: localHeads, ReqID: s.ReqID, Context: ctx,
			},
			Op{
				Kind: OpAttend, Name: nm.attend, Phase: phase,
				M: s.NewTokens, N: headDim, K: ctx,
				Heads: localHeads, ReqID: s.ReqID, Context: ctx,
			},
		)
	}
	block = append(block,
		Op{
			Kind: OpProj, Name: "Proj", Phase: phase,
			M: totalNew, N: h, K: projK, Heads: 1, ReqID: -1, Batched: true,
			Weights: int64(h) * int64(projK) * int64(d),
		},
		Op{
			Kind: OpResidue, Name: "Residual1", Phase: phase,
			M: totalNew, N: h, K: 1, Heads: 1, ReqID: -1, Batched: true,
		},
		Op{
			Kind: OpLayerNorm, Name: "LayerNorm2", Phase: phase,
			M: totalNew, N: h, K: 1, Heads: 1, ReqID: -1, Batched: true,
		},
	)
	// Feed-forward: dense, or mixture-of-experts with a router GEMM and
	// TopK-activated expert FFNs (the Section V-B extension). Each token
	// is processed by TopK experts, so the FFN GEMMs widen by TopK rows;
	// weight traffic covers every *activated* expert's shard.
	ffnM := totalNew
	activeExperts := int64(1)
	if cfg.IsMoE() {
		block = append(block, Op{
			Kind: OpGate, Name: "Gate", Phase: phase,
			M: totalNew, N: cfg.Experts, K: h, Heads: 1, ReqID: -1, Batched: true,
			Weights: int64(cfg.Experts) * int64(h) * int64(d),
		})
		ffnM = totalNew * cfg.TopK
		if totalNew*cfg.TopK < cfg.Experts {
			activeExperts = int64(totalNew * cfg.TopK)
		} else {
			activeExperts = int64(cfg.Experts)
		}
	}
	block = append(block,
		Op{
			Kind: OpFFN1, Name: "FFN1", Phase: phase,
			// Gated (SwiGLU) FFNs fuse the gate and up projections into one
			// doubled-width GEMM, as LLaMA deployments do.
			M: ffnM, N: ffn1N, K: h, Heads: 1, ReqID: -1, Batched: true,
			Weights: activeExperts * int64(ffn1N) * int64(h) * int64(d),
		},
		Op{
			Kind: OpFFN2, Name: "FFN2", Phase: phase,
			M: ffnM, N: h, K: ffnShard, Heads: 1, ReqID: -1, Batched: true,
			Weights: activeExperts * int64(h) * int64(ffnShard) * int64(d),
		},
		Op{
			Kind: OpResidue, Name: "Residual2", Phase: phase,
			M: totalNew, N: h, K: 1, Heads: 1, ReqID: -1, Batched: true,
		},
	)
	it.Block = block

	// LM head computes logits for the last position of each sequence only.
	it.Head = Op{
		Kind: OpLMHead, Name: "LMHead", Phase: phase,
		M: len(batch), N: vocabShard, K: h, Heads: 1, ReqID: -1, Batched: true,
		Weights: int64(vocabShard) * int64(h) * int64(d),
	}
	return nil
}

// batchPhase labels a mixed batch: Initiation if any sequence is in its
// prompt phase (the iteration then carries prompt work), else Generation.
func batchPhase(batch []Seq) Phase {
	for _, s := range batch {
		if s.Phase == Initiation {
			return Initiation
		}
	}
	return Generation
}

// reqOpName builds "<prefix><id>" without fmt.
func reqOpName(prefix string, id int) string {
	b := make([]byte, 0, len(prefix)+8)
	b = append(b, prefix...)
	b = strconv.AppendInt(b, int64(id), 10)
	return string(b)
}
