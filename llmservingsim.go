// Package llmservingsim is a hardware/software co-simulation
// infrastructure for LLM inference serving at scale, reproducing
// LLMServingSim (Cho et al., IISWC 2024) in pure Go.
//
// The simulator jointly models the serving system software — Orca-style
// iteration-level scheduling, vLLM-style paged KV-cache management,
// tensor/pipeline/hybrid parallelism — and the accelerator hardware, via
// pluggable compiler-and-simulator execution engines for NPU, PIM, and
// GPU devices. Each serving iteration runs through the pipeline of Fig. 4:
// the scheduler forms a batch, the execution engines simulate every
// operator (with the paper's model-redundancy and computation-reuse
// optimisations), the graph converter builds a distributed execution
// graph, and a discrete-event system simulator replays it over the
// network topology, feeding the iteration latency back into the
// scheduler's clock.
//
// Quick start, using the functional-options constructor:
//
//	trace, _ := llmservingsim.ShareGPTTrace(128, 4.0, 1)
//	sim, _ := llmservingsim.New(trace,
//		llmservingsim.WithModel("gpt3-7b"),
//		llmservingsim.WithNPUs(4),
//		llmservingsim.WithParallelism(llmservingsim.ParallelismTensor),
//	)
//	report, _ := sim.Run()
//	fmt.Println(report.GenTPS)
//
// The equivalent explicit-Config path remains available:
//
//	cfg := llmservingsim.DefaultConfig()
//	cfg.Model = "gpt3-7b"
//	cfg.NPUs = 4
//	cfg.Parallelism = llmservingsim.ParallelismTensor
//	sim, _ := llmservingsim.NewFromConfig(cfg, trace)
//
// External drivers can run the simulator incrementally with Step, cancel
// long runs with RunContext, and observe progress with the OnIteration
// hook. Design-space exploration fans whole configuration grids out over
// a worker pool with the Scenario/Sweep layer:
//
//	sw := llmservingsim.NewSweep(scenarios...)
//	report, _ := sw.Run()
//	report.WriteTSV(os.Stdout)
package llmservingsim

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine/gpu"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/perfmodel"
	"repro/internal/perfmodel/roofline"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// Request is one inference request: a prompt of InputLen tokens arriving
// at Arrival (relative to trace start) that generates OutputLen tokens.
// Class optionally names the request's traffic class — the unit of
// per-class SLO accounting in cluster simulations; single-class traces
// leave it empty.
type Request struct {
	InputLen  int
	OutputLen int
	Arrival   time.Duration
	Class     string
	// PrefixLen counts the leading prompt tokens shared with every other
	// request carrying the same prefix cache key (a common system prompt,
	// or a conversation's accumulated context). With prefix caching
	// enabled, those tokens are served from cache after the first request
	// under the key computes them. Zero means no shared prefix.
	PrefixLen int
	// PrefixKey scopes the cached prefix. Empty means class-wide (the
	// default); session generators set a per-conversation key so each
	// conversation grows its own cache lineage.
	PrefixKey string
	// Session/Turn/SessionTurns identify multi-turn conversation
	// traffic: Session is a positive conversation ID (0 = not session
	// traffic), Turn the 1-based turn index, SessionTurns the session's
	// total turn count.
	Session      int
	Turn         int
	SessionTurns int
}

// Iteration is one completed simulation iteration, delivered to the
// OnIteration progress hook.
type Iteration struct {
	Index        int // 0-based iteration index
	BatchSize    int // requests in the batch
	PromptTokens int // prompt tokens processed this iteration
	LatencySec   float64
	ClockSec     float64 // simulated clock at iteration end
}

// Config mirrors the artifact's simulation parameters. The zero value of
// every enum field is the artifact default, so a Config built from
// scratch only needs Model and NPUs set; DefaultConfig spells the
// defaults out explicitly.
type Config struct {
	// Model names the LLM architecture: gpt2, gpt3-7b, gpt3-13b,
	// gpt3-30b, gpt3-175b, llama-7b, llama-13b, llama-30b, moe-8x7b.
	Model string

	// NPUs is the accelerator count; NPUGroups is the hybrid group count
	// (pipeline stages), defaulting to 1.
	NPUs        int
	Parallelism Parallelism
	NPUGroups   int

	// MaxBatch caps requests per iteration (0 = unlimited); BatchDelay
	// waits to accumulate arrivals.
	MaxBatch   int
	BatchDelay time.Duration
	Scheduling SchedPolicy

	// KVPageTokens is the paged-allocation page size in tokens
	// (default 16).
	KVManage     KVPolicy
	KVPageTokens int

	// PrefixCache enables shared-prefix KV caching (off by default;
	// requires KVPaged). In tiered mode, KVHostMemGB bounds the host
	// spill tier in gigabytes (0 = unbounded host memory).
	PrefixCache PrefixCacheMode
	KVHostMemGB float64

	// PrefillChunk caps the prompt tokens one iteration may prefill for
	// a single request under SchedChunked (0 selects the default, 256).
	// Ignored by the other scheduling policies.
	PrefillChunk int

	// PIMPoolSize sizes the PIMPool-mode pool (0 = NPUs); SubBatches > 1
	// enables NeuPIMs-style sub-batch interleaving.
	PIMType     PIMMode
	PIMPoolSize int
	SubBatches  int

	// SelectiveBatching distributes per-request full-head attention
	// across tensor-parallel workers (Orca/Fig. 3 style).
	SelectiveBatching bool

	// SkipInitiation admits requests directly into the generation phase
	// (the artifact's "gen" flag).
	SkipInitiation bool

	// Reuse toggles the paper's result-reusing techniques. Disable only
	// to reproduce the no-reuse baselines.
	ModelRedundancyReuse bool
	ComputationReuse     bool

	// UseGPUEngine swaps the NPU engine for the GPU reference model
	// (vLLM-like kernels), used by the validation experiments.
	UseGPUEngine bool

	// PerfModel selects the performance-model backend pricing each
	// iteration: the full astra pipeline (default) or the analytical
	// roofline model. See the PerfModel enum.
	PerfModel PerfModel

	// Hardware optionally names an accelerator preset (see Hardwares:
	// "rtx3090", "a100", "h100", ...) the backend models instead of the
	// NPU/GPU config blocks below: the roofline backend prices against
	// it, and the astra backend models it with the systolic NPU engine
	// for NPU-derived presets ("genesys-128x128") or the GPU reference
	// engine for GPU-class ones. Empty keeps the configured NPU (or
	// GPU, with UseGPUEngine) hardware.
	Hardware string

	// Hardware overrides. An entirely zero-valued block uses the Table I
	// defaults; to override individual fields, start from DefaultConfig
	// (which pre-fills every block) and mutate — a partially filled
	// block fails Validate rather than being silently completed.
	NPU  config.NPUConfig
	PIM  config.PIMConfig
	GPU  config.GPUConfig
	Link config.LinkConfig

	// ThroughputWindow is the bucket width of throughput-over-time
	// series (default 10s of simulated time).
	ThroughputWindow time.Duration

	// OnIteration, when non-nil, receives a progress event after every
	// simulated iteration. It runs synchronously on the goroutine
	// driving the simulation (inside a Sweep, a worker goroutine).
	OnIteration func(Iteration)

	// Telemetry, when non-nil, records request spans and decision
	// records for this simulation (see NewTelemetry). A recorder holds
	// one run's state: give each concurrently running simulation its
	// own.
	Telemetry *Telemetry
}

// DefaultConfig returns the artifact's default parameters: gpt2, 16 NPUs,
// hybrid parallelism with 1 group, Orca scheduling, vLLM KV management,
// no PIM, all reuse optimisations on.
func DefaultConfig() Config {
	return Config{
		Model:                "gpt2",
		NPUs:                 16,
		Parallelism:          ParallelismHybrid,
		NPUGroups:            1,
		Scheduling:           SchedOrca,
		KVManage:             KVPaged,
		KVPageTokens:         16,
		PIMType:              PIMNone,
		SubBatches:           1,
		ModelRedundancyReuse: true,
		ComputationReuse:     true,
		NPU:                  config.DefaultNPU(),
		PIM:                  config.DefaultPIM(),
		GPU:                  config.DefaultGPU(),
		Link:                 config.DefaultLink(),
	}
}

// ConfigError reports an invalid Config field. Validate — and the
// constructors, for every problem Validate detects — return
// *ConfigError so callers can programmatically identify the field at
// fault. Deeper construction failures that depend on the combination of
// model and hardware (e.g. model weights exceeding aggregate device
// memory) surface as plain errors from the constructors.
type ConfigError struct {
	Field  string // Config field name, e.g. "NPUs"
	Value  any    // the offending value
	Reason string // human-readable constraint
	Err    error  // underlying cause, when wrapping another error
}

func (e *ConfigError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("llmservingsim: config %s=%v: %v", e.Field, e.Value, e.Err)
	}
	return fmt.Sprintf("llmservingsim: config %s=%v: %s", e.Field, e.Value, e.Reason)
}

func (e *ConfigError) Unwrap() error { return e.Err }

// AsConfigError unwraps err to a *ConfigError if one is in its chain.
func AsConfigError(err error) (*ConfigError, bool) {
	var ce *ConfigError
	ok := errors.As(err, &ce)
	return ce, ok
}

// Validate checks the configuration without building a simulator. It
// returns nil or a *ConfigError naming the first offending field.
func (c Config) Validate() error {
	if _, err := model.Lookup(c.Model); err != nil {
		return &ConfigError{Field: "Model", Value: c.Model, Reason: "unknown model", Err: err}
	}
	if c.NPUs <= 0 {
		return &ConfigError{Field: "NPUs", Value: c.NPUs, Reason: "must be positive"}
	}
	if !c.Parallelism.valid() {
		return &ConfigError{Field: "Parallelism", Value: c.Parallelism, Reason: "unknown parallelism"}
	}
	if c.NPUGroups < 0 {
		return &ConfigError{Field: "NPUGroups", Value: c.NPUGroups, Reason: "must not be negative"}
	}
	if c.Parallelism == ParallelismHybrid {
		groups := cmp.Or(c.NPUGroups, 1)
		if c.NPUs%groups != 0 {
			return &ConfigError{Field: "NPUGroups", Value: c.NPUGroups,
				Reason: fmt.Sprintf("%d NPUs not divisible into %d groups", c.NPUs, groups)}
		}
	}
	if !c.Scheduling.valid() {
		return &ConfigError{Field: "Scheduling", Value: c.Scheduling, Reason: "unknown scheduling policy"}
	}
	if !c.KVManage.valid() {
		return &ConfigError{Field: "KVManage", Value: c.KVManage, Reason: "unknown kv policy"}
	}
	if !c.PIMType.valid() {
		return &ConfigError{Field: "PIMType", Value: c.PIMType, Reason: "unknown pim mode"}
	}
	if c.MaxBatch < 0 {
		return &ConfigError{Field: "MaxBatch", Value: c.MaxBatch, Reason: "must not be negative"}
	}
	if c.BatchDelay < 0 {
		return &ConfigError{Field: "BatchDelay", Value: c.BatchDelay, Reason: "must not be negative"}
	}
	if c.KVPageTokens < 0 {
		return &ConfigError{Field: "KVPageTokens", Value: c.KVPageTokens, Reason: "must not be negative"}
	}
	if !c.PrefixCache.valid() {
		return &ConfigError{Field: "PrefixCache", Value: c.PrefixCache, Reason: "unknown prefix cache mode"}
	}
	if c.PrefixCache != PrefixCacheOff && c.KVManage != KVPaged {
		return &ConfigError{Field: "PrefixCache", Value: c.PrefixCache,
			Reason: "prefix caching requires paged KV management (KVPaged)"}
	}
	if c.KVHostMemGB < 0 {
		return &ConfigError{Field: "KVHostMemGB", Value: c.KVHostMemGB, Reason: "must not be negative"}
	}
	if c.PrefillChunk < 0 {
		return &ConfigError{Field: "PrefillChunk", Value: c.PrefillChunk, Reason: "must not be negative"}
	}
	if c.PIMPoolSize < 0 {
		return &ConfigError{Field: "PIMPoolSize", Value: c.PIMPoolSize, Reason: "must not be negative"}
	}
	if c.SubBatches < 0 {
		return &ConfigError{Field: "SubBatches", Value: c.SubBatches, Reason: "must not be negative"}
	}
	if c.SubBatches > 1 && c.PIMType == PIMNone {
		return &ConfigError{Field: "SubBatches", Value: c.SubBatches,
			Reason: "sub-batch interleaving requires a PIM configuration"}
	}
	if !c.PerfModel.valid() {
		return &ConfigError{Field: "PerfModel", Value: c.PerfModel, Reason: "unknown perf model"}
	}
	if c.PerfModel == PerfModelRoofline && c.PIMType != PIMNone {
		return &ConfigError{Field: "PerfModel", Value: c.PerfModel,
			Reason: "the roofline backend does not model PIM operator mapping (use astra)"}
	}
	if c.Hardware != "" {
		if _, err := perfmodel.LookupHardware(c.Hardware); err != nil {
			return &ConfigError{Field: "Hardware", Value: c.Hardware, Reason: "unknown hardware preset", Err: err}
		}
	}
	hw := c.withHardwareDefaults()
	if err := hw.NPU.Validate(); err != nil {
		return &ConfigError{Field: "NPU", Value: hw.NPU.Name, Reason: "invalid NPU hardware config", Err: err}
	}
	if err := hw.PIM.Validate(); err != nil {
		return &ConfigError{Field: "PIM", Value: hw.PIM.Name, Reason: "invalid PIM hardware config", Err: err}
	}
	if err := hw.GPU.Validate(); err != nil {
		return &ConfigError{Field: "GPU", Value: hw.GPU.Name, Reason: "invalid GPU hardware config", Err: err}
	}
	if err := hw.Link.Validate(); err != nil {
		return &ConfigError{Field: "Link", Value: hw.Link, Reason: "invalid link config", Err: err}
	}
	return nil
}

// withHardwareDefaults fills entirely zero-valued hardware blocks with
// the Table I defaults, uniformly across NPU, PIM, GPU, and link
// configs. A partially set block is kept as-is so Validate can reject
// it explicitly instead of silently discarding the override.
func (c Config) withHardwareDefaults() Config {
	if c.NPU == (config.NPUConfig{}) {
		c.NPU = config.DefaultNPU()
	}
	if c.PIM == (config.PIMConfig{}) {
		c.PIM = config.DefaultPIM()
	}
	if c.GPU == (config.GPUConfig{}) {
		c.GPU = config.DefaultGPU()
	}
	if c.Link == (config.LinkConfig{}) {
		c.Link = config.DefaultLink()
	}
	return c
}

// ThroughputPoint is one sample of the throughput-over-time series.
type ThroughputPoint struct {
	TimeSec   float64
	PromptTPS float64
	GenTPS    float64
}

// LatencyStats summarises request latencies in seconds. Percentiles use
// the standard nearest-rank definition (the value at 1-based rank
// ceil(p*n) of the sorted latencies).
type LatencyStats struct {
	Count   int
	MeanSec float64
	P50Sec  float64
	P95Sec  float64
	P99Sec  float64
	TTFTSec float64 // mean time to first token
	TPOTSec float64 // mean time per output token after the first
}

// SimulationTime is the host wall-clock breakdown across simulator
// components — the paper's "simulation time" (Fig. 9).
type SimulationTime struct {
	Scheduler       time.Duration
	ExecutionEngine time.Duration
	GraphConverter  time.Duration
	AstraSim        time.Duration
	Total           time.Duration
}

// KVStats reports KV-cache occupancy at end of run plus cumulative paging
// activity. The Prefix* fields are zero unless prefix caching is on.
type KVStats struct {
	TotalPages int
	Evictions  int64
	Reloads    int64

	PrefixLookups     int64 // admissions that probed the prefix cache
	PrefixHits        int64 // probes that reused at least one cached block
	PrefixTokensSaved int64 // prefill tokens skipped via cache hits
	PrefixSpillBytes  int64 // prefix blocks spilled device -> host
	PrefixReloadBytes int64 // prefix blocks restored host -> device
}

// PrefixHitRate returns the fraction of prefix-cache probes that reused
// at least one cached block.
func (s KVStats) PrefixHitRate() float64 {
	if s.PrefixLookups == 0 {
		return 0
	}
	return float64(s.PrefixHits) / float64(s.PrefixLookups)
}

// Report is the outcome of a simulation run.
type Report struct {
	Model              string
	Topology           string
	Backend            string // performance model that priced the run ("astra", "roofline/a100", ...)
	Iterations         int
	Rejected           int     // requests refused as unservable (prompt beyond context/KV budget)
	SimEndSec          float64 // simulated time to drain the trace
	PromptTPS          float64 // mean prompt tokens/second
	GenTPS             float64 // mean generated tokens/second
	Throughput         []ThroughputPoint
	Latency            LatencyStats
	KV                 KVStats
	SimTime            SimulationTime
	EngineCacheHitRate float64

	inner *core.Report
}

// WriteThroughputTSV writes the artifact's *-throughput.tsv output.
func (r *Report) WriteThroughputTSV(w io.Writer) error {
	return metrics.WriteThroughputTSV(w, r.inner.Buckets)
}

// WriteSimulationTimeTSV writes the artifact's *-simulation-time.tsv
// output.
func (r *Report) WriteSimulationTimeTSV(w io.Writer) error {
	return metrics.WriteSimulationTimeTSV(w, r.inner.Host)
}

// Simulator is a configured LLMServingSim instance bound to a trace.
type Simulator struct {
	inner *core.Simulator
}

// New builds a simulator for the trace, starting from DefaultConfig and
// applying the options in order.
func New(trace []Request, opts ...Option) (*Simulator, error) {
	cfg := DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return NewFromConfig(cfg, trace)
}

// NewFromConfig builds a simulator from an explicit configuration — the
// artifact-style construction path.
func NewFromConfig(cfg Config, trace []Request) (*Simulator, error) {
	opts, err := buildOptions(cfg)
	if err != nil {
		return nil, err
	}
	inner, err := core.New(opts, toWorkload(trace))
	if err != nil {
		return nil, err
	}
	attachIterationHook(inner, cfg.OnIteration)
	return &Simulator{inner: inner}, nil
}

// attachIterationHook forwards core iteration events to the public
// OnIteration hook; it is shared by the single-instance constructors
// and the cluster replica factory.
func attachIterationHook(inner *core.Simulator, hook func(Iteration)) {
	if hook == nil {
		return
	}
	inner.OnIteration = func(it core.IterationStats) {
		hook(Iteration{
			Index:        it.Index,
			BatchSize:    it.BatchSize,
			PromptTokens: it.PromptTokens,
			LatencySec:   it.Latency.Std().Seconds(),
			ClockSec:     it.Start.Add(it.Latency).Seconds(),
		})
	}
}

// Run simulates the trace to completion.
func (s *Simulator) Run() (*Report, error) {
	return s.RunContext(context.Background())
}

// RunContext simulates the trace to completion, checking ctx between
// iterations; it returns ctx.Err() if the context is cancelled first.
func (s *Simulator) RunContext(ctx context.Context) (*Report, error) {
	rep, err := s.inner.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	return wrapReport(rep), nil
}

// Step advances the simulation by exactly one scheduler iteration,
// returning done=true once the trace has drained. It lets external
// drivers — servers, notebooks, tuners — interleave simulation with
// their own control flow; call Report between steps for a snapshot.
func (s *Simulator) Step() (done bool, err error) { return s.inner.Step() }

// Report returns the report over the iterations completed so far. After
// Run it equals the run's report; between Steps it is a snapshot.
func (s *Simulator) Report() *Report { return wrapReport(s.inner.Report()) }

func wrapReport(rep *core.Report) *Report {
	out := &Report{
		Model:      rep.Model.Name,
		Topology:   rep.Topo.String(),
		Backend:    rep.Backend,
		Iterations: rep.Iterations,
		Rejected:   len(rep.Rejected),
		SimEndSec:  rep.SimEnd.Seconds(),
		PromptTPS:  rep.PromptTPS,
		GenTPS:     rep.GenTPS,
		Latency: LatencyStats{
			Count:   rep.Latency.Count,
			MeanSec: rep.Latency.MeanSec,
			P50Sec:  rep.Latency.P50Sec,
			P95Sec:  rep.Latency.P95Sec,
			P99Sec:  rep.Latency.P99Sec,
			TTFTSec: rep.Latency.MeanTTFTSec,
			TPOTSec: rep.Latency.MeanTPOTSec,
		},
		KV: KVStats{
			TotalPages: rep.KV.TotalPages,
			Evictions:  rep.KV.Evictions,
			Reloads:    rep.KV.Reloads,

			PrefixLookups:     rep.KV.PrefixLookups,
			PrefixHits:        rep.KV.PrefixHits,
			PrefixTokensSaved: rep.KV.PrefixTokensSaved,
			PrefixSpillBytes:  rep.KV.PrefixSpillBytes,
			PrefixReloadBytes: rep.KV.PrefixReloadBytes,
		},
		SimTime: SimulationTime{
			Scheduler:       rep.Host.Scheduler,
			ExecutionEngine: rep.Host.ExecutionEngine,
			GraphConverter:  rep.Host.GraphConverter,
			AstraSim:        rep.Host.AstraSim,
			Total:           rep.Host.Total(),
		},
		EngineCacheHitRate: rep.NPUStats.HitRate(),
		inner:              rep,
	}
	for _, b := range rep.Buckets {
		out.Throughput = append(out.Throughput, ThroughputPoint{
			TimeSec: b.Time.Seconds(), PromptTPS: b.PromptTPS, GenTPS: b.GenTPS,
		})
	}
	return out
}

// buildOptions converts the public Config into core options.
func buildOptions(cfg Config) (core.Options, error) {
	var opts core.Options

	if err := cfg.Validate(); err != nil {
		return opts, err
	}
	cfg = cfg.withHardwareDefaults()

	m := model.MustLookup(cfg.Model) // Validate checked the name
	topo, err := network.Build(cfg.Parallelism.internal(), cfg.NPUs,
		cmp.Or(cfg.NPUGroups, 1), cfg.Link, cfg.Link)
	if err != nil {
		return opts, err
	}

	pimMode := cfg.PIMType.internal()
	if pimMode == core.PIMPool {
		topo.PIMPool = cmp.Or(cfg.PIMPoolSize, cfg.NPUs)
	}

	opts = core.Options{
		Model:   m,
		Topo:    topo,
		NPU:     cfg.NPU,
		PIM:     cfg.PIM,
		PIMMode: pimMode,
		Sched: sched.Config{
			Policy:      cfg.Scheduling.internal(),
			MaxBatch:    cfg.MaxBatch,
			BatchDelay:  simtime.FromStd(cfg.BatchDelay),
			SubBatches:  max(cfg.SubBatches, 1),
			SkipPrefill: cfg.SkipInitiation,
			ChunkTokens: cfg.PrefillChunk, // sched.New applies the default of 256
		},
		SelectiveBatching: cfg.SelectiveBatching,
		KVPolicy:          cfg.KVManage.internal(),
		KVPageTokens:      cfg.KVPageTokens, // core.New applies the default of 16
		KVPrefix:          cfg.PrefixCache.internal(),
		KVHostBytes:       int64(cfg.KVHostMemGB * (1 << 30)),
		Reuse: core.ReuseOptions{
			ModelRedundancy:  cfg.ModelRedundancyReuse,
			ComputationReuse: cfg.ComputationReuse,
		},
		ThroughputWindow: simtime.FromStd(cfg.ThroughputWindow),
		Obs:              cfg.Telemetry.recorder(),
	}

	switch cfg.PerfModel {
	case PerfModelRoofline:
		// Roofline prices against the named hardware preset, else the
		// device the configured engine would have modelled.
		var hw perfmodel.Hardware
		switch {
		case cfg.Hardware != "":
			hw, err = perfmodel.LookupHardware(cfg.Hardware) // Validate checked the name
			if err != nil {
				return opts, err
			}
		case cfg.UseGPUEngine:
			hw = perfmodel.HardwareFromGPU(cfg.GPU)
		default:
			hw = perfmodel.HardwareFromNPU(cfg.NPU)
		}
		pc := perfmodel.Config{
			Model:             m,
			Topo:              topo,
			PIMMode:           pimMode,
			SelectiveBatching: cfg.SelectiveBatching,
			Reuse:             opts.Reuse,
		}
		opts.Backend = func() (perfmodel.Backend, error) { return roofline.New(pc, hw) }
	default:
		// Astra backend: an NPU-derived hardware preset keeps the
		// systolic NPU engine (configured to that device); any other
		// preset selects the GPU reference engine at the preset's
		// rates. Without a preset, the NPU (or, with UseGPUEngine, the
		// configured GPU) engine runs.
		if cfg.Hardware != "" {
			hw, err := perfmodel.LookupHardware(cfg.Hardware)
			if err != nil {
				return opts, err
			}
			if npuCfg, ok := hw.NPUSource(); ok {
				opts.NPU = npuCfg
				opts.EngineFactory = nil
			} else {
				gpuCfg := gpuConfigFromHardware(hw)
				opts.EngineFactory = func() (engine.Engine, error) { return gpu.New(gpuCfg) }
			}
		} else if cfg.UseGPUEngine {
			gpuCfg := cfg.GPU
			opts.EngineFactory = func() (engine.Engine, error) { return gpu.New(gpuCfg) }
		}
	}
	return opts, nil
}

// gpuConfigFromHardware projects a hardware preset onto the GPU
// reference engine's configuration surface.
func gpuConfigFromHardware(hw perfmodel.Hardware) config.GPUConfig {
	return config.GPUConfig{
		Name:           hw.Name,
		PeakFLOPs:      hw.PeakFLOPs,
		MemoryBytes:    hw.MemoryBytes,
		MemoryBWBytes:  hw.MemBWBytes,
		KernelLaunchUs: float64(hw.LaunchOverhead) / float64(simtime.Microsecond),
		GEMMEfficiency: hw.Efficiency,
		FlashAttention: true,
	}
}

// Hardwares returns the named accelerator presets usable in
// Config.Hardware and fleet specs.
func Hardwares() []string { return perfmodel.HardwareNames() }

// ShareGPTTrace synthesises n requests with ShareGPT-like length
// statistics and Poisson arrivals at ratePerSec.
func ShareGPTTrace(n int, ratePerSec float64, seed int64) ([]Request, error) {
	reqs, err := workload.PoissonTrace(workload.ShareGPT(), n, ratePerSec, seed)
	if err != nil {
		return nil, err
	}
	return fromWorkload(reqs), nil
}

// AlpacaTrace synthesises n requests with Alpaca-like length statistics
// and Poisson arrivals at ratePerSec.
func AlpacaTrace(n int, ratePerSec float64, seed int64) ([]Request, error) {
	reqs, err := workload.PoissonTrace(workload.Alpaca(), n, ratePerSec, seed)
	if err != nil {
		return nil, err
	}
	return fromWorkload(reqs), nil
}

// UniformTrace returns n identical requests arriving together (the
// fixed-shape inputs of the simulation-time experiments).
func UniformTrace(n, inputLen, outputLen int) []Request {
	return fromWorkload(workload.UniformBatch(n, inputLen, outputLen))
}

// LoadTrace reads a trace from an artifact-format TSV file.
func LoadTrace(path string) ([]Request, error) {
	reqs, err := workload.LoadTSVFile(path)
	if err != nil {
		return nil, err
	}
	return fromWorkload(reqs), nil
}

// SaveTrace writes a trace to an artifact-format TSV file.
func SaveTrace(path string, trace []Request) error {
	return workload.SaveTSVFile(path, toWorkload(trace))
}

// internalRequest carries one public request across the API boundary
// with the given ID, its arrival at simtime resolution. It and
// publicRequest are the only field-by-field conversions.
func internalRequest(r Request, id int) workload.Request {
	return workload.Request{
		ID:           id,
		InputLen:     r.InputLen,
		OutputLen:    r.OutputLen,
		Arrival:      simtime.Time(simtime.FromStd(r.Arrival)),
		Class:        r.Class,
		PrefixLen:    r.PrefixLen,
		PrefixKey:    r.PrefixKey,
		Session:      r.Session,
		Turn:         r.Turn,
		SessionTurns: r.SessionTurns,
	}
}

// publicRequest lifts one internal request across the API boundary.
func publicRequest(r workload.Request) Request {
	return Request{
		InputLen:     r.InputLen,
		OutputLen:    r.OutputLen,
		Arrival:      simtime.Duration(r.Arrival).Std(),
		Class:        r.Class,
		PrefixLen:    r.PrefixLen,
		PrefixKey:    r.PrefixKey,
		Session:      r.Session,
		Turn:         r.Turn,
		SessionTurns: r.SessionTurns,
	}
}

// toWorkload converts a public trace into the internal request form,
// numbering requests by trace index.
func toWorkload(trace []Request) []workload.Request {
	out := make([]workload.Request, len(trace))
	for i, r := range trace {
		out[i] = internalRequest(r, i)
	}
	return out
}

func fromWorkload(reqs []workload.Request) []Request {
	out := make([]Request, len(reqs))
	for i, r := range reqs {
		out[i] = publicRequest(r)
	}
	return out
}

// Models returns the registered model names.
func Models() []string { return model.Names() }

// Version identifies the reproduction release. 2.0.0 reflects the
// incompatible API redesign: New became the functional-options
// constructor (the 1.x New(cfg, trace) signature lives on as
// NewFromConfig) and the stringly-typed Config fields became enums.
const Version = "2.0.0"
