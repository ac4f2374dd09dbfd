// Package engine defines the execution-engine plugin interface of the
// simulator and the result-reuse machinery built around it.
//
// An execution engine is a compiler-and-simulator stack for one accelerator
// type (the paper prototypes with the GeneSys NPU stack and an in-house PIM
// simulator). LLMServingSim treats engines as plugins: anything that can
// compile an operator into a device schedule and report its simulated
// latency can participate in system simulation. The Stack wrapper adds the
// paper's two speed techniques: model-redundancy reuse (identical operator
// shapes across transformer blocks compile once) and computation reuse
// (compilation and simulation results are cached across iterations).
package engine

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/simtime"
)

// Kind labels the accelerator class an engine models.
type Kind int

const (
	NPU Kind = iota
	PIM
	GPU
)

func (k Kind) String() string {
	switch k {
	case NPU:
		return "npu"
	case PIM:
		return "pim"
	case GPU:
		return "gpu"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Compiled is an operator lowered onto a specific engine: the device
// schedule (tiling, bank mapping, kernel choice) that simulation replays.
type Compiled interface {
	// Key canonically identifies the compiled artifact for caching.
	Key() string
	// Op returns the operator the artifact was compiled from.
	Op() model.Op
}

// Result is the simulated execution of one compiled operator.
type Result struct {
	Op            model.Op
	Latency       simtime.Duration
	ComputeCycles int64 // cycles the compute resource was busy
	MemoryCycles  int64 // cycles the memory system was busy
	BytesMoved    int64
	Bound         string // "compute" or "memory": the roofline side that dominated
}

// Engine is a compiler-and-simulator stack for one accelerator type.
// Implementations must be safe for concurrent use.
type Engine interface {
	// Name identifies the engine instance (e.g. "genesys-128x128").
	Name() string
	// Kind reports the accelerator class.
	Kind() Kind
	// Compile lowers an operator into a device schedule. This is the
	// expensive front-end phase that model-redundancy reuse skips.
	Compile(op model.Op) (Compiled, error)
	// Simulate executes a compiled operator and reports its latency.
	Simulate(c Compiled) (Result, error)
	// Supports reports whether the engine can execute the operator kind;
	// the operator-mapping strategies consult it.
	Supports(kind model.OpKind) bool
	// MemoryBytes returns the device memory capacity (KV paging budget).
	MemoryBytes() int64
	// MemoryBandwidth returns the device memory bandwidth in bytes/sec.
	MemoryBandwidth() float64
	// PeakFLOPs returns the peak compute rate in FLOP/s (roofline roof).
	PeakFLOPs() float64
}

// StackStats instruments a Stack: cache effectiveness and the host
// wall-clock cost of each phase (the paper's "simulation time" metric,
// Figs. 8-10, and the execution-engine bar of the Fig. 9 breakdown).
// Counters belong to one Stack; when its Cache is shared, a hit may land
// on an entry another Stack filled.
type StackStats struct {
	CompileCalls  int64
	CompileHits   int64
	SimulateCalls int64
	SimulateHits  int64
	CompileHost   time.Duration // host time spent inside Compile
	SimulateHost  time.Duration // host time spent inside Simulate
	OpsSimulated  int64
	SimulatedBusy simtime.Duration // total simulated device-busy time
}

// HitRate returns the combined cache hit rate across both phases.
func (s StackStats) HitRate() float64 {
	total := s.CompileCalls + s.SimulateCalls
	if total == 0 {
		return 0
	}
	return float64(s.CompileHits+s.SimulateHits) / float64(total)
}

// Cache holds the compiled artifacts and simulated latencies of one
// engine configuration, keyed by operator shape. Equal shapes cost the
// same on equally configured engines, so one Cache may serve every Stack
// whose engine is configured identically. The zero value is ready to use.
type Cache struct {
	mu      sync.Mutex
	entries map[model.ShapeID]cacheEntry
}

// cacheEntry is one operator shape's reuse state: compiled once, then
// simulated once.
type cacheEntry struct {
	compiled  Compiled
	latency   simtime.Duration
	simulated bool
}

// Sizes returns the number of cached compiled artifacts and simulated
// latencies.
func (c *Cache) Sizes() (compiled, simulated int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if e.simulated {
			simulated++
		}
	}
	return len(c.entries), simulated
}

// Caches hands out one Cache per engine configuration key, so the
// replicas of one cluster run share their result caches. Keys must be
// comparable; configurations of different types never collide. A nil
// *Caches hands out a fresh private Cache on every call.
type Caches struct {
	mu     sync.Mutex
	byConf map[any]*Cache
}

// For returns the Cache of the configuration key, creating it on first
// use.
func (cs *Caches) For(key any) *Cache {
	if cs == nil {
		return new(Cache)
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	c, ok := cs.byConf[key]
	if !ok {
		if cs.byConf == nil {
			cs.byConf = make(map[any]*Cache)
		}
		c = new(Cache)
		cs.byConf[key] = c
	}
	return c
}

// Stack wraps an Engine with the paper's result-reuse caches.
//
// With reuse enabled, compilation results are cached by operator shape so
// that the repeated transformer blocks of an LLM compile exactly once
// (model-redundancy reuse), and simulated latencies are cached so that
// iterations re-simulate only the attention operators whose context
// length changed (computation reuse). With reuse disabled, every call
// re-runs the engine, reproducing the behaviour of conventional per-layer
// simulators.
type Stack struct {
	eng   Engine
	reuse bool
	cache *Cache
	stats StackStats // guarded by cache.mu
}

// NewStack wraps an engine. reuse enables the result caches; cache holds
// them and may be shared with other stacks over identically configured
// engines (nil gives the stack a private one).
func NewStack(eng Engine, reuse bool, cache *Cache) *Stack {
	if cache == nil {
		cache = new(Cache)
	}
	return &Stack{eng: eng, reuse: reuse, cache: cache}
}

// Engine returns the wrapped engine.
func (s *Stack) Engine() Engine { return s.eng }

// Cache returns the result cache the stack reads and fills.
func (s *Stack) Cache() *Cache { return s.cache }

// RunLatency compiles and simulates one operator, consulting the cache,
// and returns its simulated latency. A fully cached shape (the steady
// state of an iteration loop) costs one map probe under one lock.
func (s *Stack) RunLatency(op model.Op) (simtime.Duration, error) {
	key := op.ShapeID()
	c := s.cache
	c.mu.Lock()
	var e cacheEntry
	if s.reuse {
		e = c.entries[key]
	}
	s.stats.CompileCalls++
	if e.compiled != nil {
		s.stats.CompileHits++
	}
	if e.simulated {
		s.stats.SimulateCalls++
		s.stats.SimulateHits++
		s.stats.OpsSimulated++
		s.stats.SimulatedBusy += e.latency
		c.mu.Unlock()
		return e.latency, nil
	}
	c.mu.Unlock()

	var compileHost time.Duration
	if e.compiled == nil {
		start := time.Now()
		compiled, err := s.eng.Compile(op)
		if err != nil {
			return 0, fmt.Errorf("engine %s: compiling %s: %w", s.eng.Name(), op.Name, err)
		}
		compileHost = time.Since(start)
		e.compiled = compiled
	}
	start := time.Now()
	r, simErr := s.eng.Simulate(e.compiled)
	simulateHost := time.Since(start)

	c.mu.Lock()
	defer c.mu.Unlock()
	s.stats.CompileHost += compileHost
	s.stats.SimulateCalls++
	if simErr == nil {
		s.stats.SimulateHost += simulateHost
		s.stats.OpsSimulated++
		s.stats.SimulatedBusy += r.Latency
		e.latency, e.simulated = r.Latency, true
	}
	if s.reuse {
		if c.entries == nil {
			c.entries = make(map[model.ShapeID]cacheEntry)
		}
		c.entries[key] = e
	}
	if simErr != nil {
		return 0, fmt.Errorf("engine %s: simulating %s: %w", s.eng.Name(), op.Name, simErr)
	}
	return r.Latency, nil
}

// Stats returns a snapshot of the stack's instrumentation.
func (s *Stack) Stats() StackStats {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	return s.stats
}

// ResetStats zeroes the instrumentation counters (the cache persists).
func (s *Stack) ResetStats() {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	s.stats = StackStats{}
}
