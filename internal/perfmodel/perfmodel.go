// Package perfmodel defines the pluggable performance-model backend
// interface of the simulator: the component that prices one serving
// iteration in simulated time.
//
// The serving layers above (core.Simulator, the cluster stepper, the
// public Scenario/Sweep API) are backend-agnostic — they form batches,
// manage KV memory, and account per-request latency, and delegate "how
// long does this iteration take on the hardware" to a Backend. Two
// implementations ship with the simulator:
//
//   - perfmodel/astra wraps the paper's full pipeline — execution-engine
//     compilation/simulation per operator, graph conversion, and
//     discrete-event system simulation over the topology — and is
//     bit-identical to the pre-perfmodel simulator.
//   - perfmodel/roofline prices each operator analytically against a
//     device roofline (min of peak compute and bandwidth-bound rates,
//     Fig. 2b) plus the analytic collective cost models of
//     internal/network. It is orders of magnitude faster, trading
//     operator-scheduling fidelity for sweep throughput.
//
// Backends are stateful (result caches, host-time instrumentation) and
// owned by exactly one simulator; Factory exists so each replica of a
// cluster builds its own instance. One kind of state may be shared: the
// astra backend's engine result caches are per engine configuration, so
// the replicas of one cluster run with identically configured engines
// read and fill the same cache (each keeps its own counters). The
// roofline backend's caches stay per replica.
package perfmodel

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/simtime"
)

// PIMMode selects how PIM devices participate (the artifact's pim_type).
type PIMMode int

const (
	// PIMNone runs a homogeneous NPU system.
	PIMNone PIMMode = iota
	// PIMLocal pairs each NPU with a directly-attached PIM device; the two
	// act as one system node and overlap via the execution engine stack's
	// operator scheduler (Fig. 5(a)).
	PIMLocal
	// PIMPool places PIM devices in a separate pool reached over the
	// interconnect, with explicit transfer operators (Fig. 5(b)).
	PIMPool
)

func (m PIMMode) String() string {
	switch m {
	case PIMLocal:
		return "local"
	case PIMPool:
		return "pool"
	default:
		return "none"
	}
}

// ReuseOptions toggles the paper's two result-reusing techniques
// independently (Section IV-C).
type ReuseOptions struct {
	// ModelRedundancy compiles and simulates one transformer block and
	// replicates it across layers.
	ModelRedundancy bool
	// ComputationReuse caches compilation and simulation results across
	// iterations (and layers).
	ComputationReuse bool
}

// ReuseAll enables both techniques (the simulator's default).
func ReuseAll() ReuseOptions {
	return ReuseOptions{ModelRedundancy: true, ComputationReuse: true}
}

// ReuseNone disables both, reproducing conventional per-layer simulation.
func ReuseNone() ReuseOptions { return ReuseOptions{} }

// Config is the backend-independent description of what a performance
// model prices: the model architecture, the system topology it is
// distributed over, and the serving-technique switches that change the
// operator workload.
type Config struct {
	Model model.Config
	Topo  network.Topology

	PIMMode PIMMode

	// SelectiveBatching distributes each request's full-head attention
	// across the tensor-parallel group (Fig. 3); off means
	// Megatron-style head-split attention.
	SelectiveBatching bool

	Reuse ReuseOptions
}

// Validate checks the backend-independent configuration.
func (c Config) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if err := c.Topo.Validate(); err != nil {
		return err
	}
	if err := c.Model.SplitTensorParallel(c.Topo.TP); err != nil {
		return err
	}
	if c.PIMMode == PIMPool && c.Topo.PIMPool <= 0 {
		return fmt.Errorf("perfmodel: pim pool mode requires PIM nodes in the topology")
	}
	return nil
}

// Breakdown decomposes one iteration's estimated latency. Analytical
// backends fill it exactly; discrete-event backends may leave components
// zero when the schedule interleaves them inseparably.
type Breakdown struct {
	Compute simtime.Duration // compute-bound operator time
	Memory  simtime.Duration // memory-bandwidth-bound operator time
	Network simtime.Duration // collectives, pipeline transfers, KV paging
}

// Backend estimates iteration latencies for one simulator instance.
// Implementations are stateful (caches, instrumentation) and need not be
// safe for concurrent use; build one per simulator via a Factory.
type Backend interface {
	// Name identifies the backend ("astra", "roofline/a100", ...); it is
	// surfaced in reports so results are attributable to the model that
	// produced them.
	Name() string

	// IterationLatency prices one scheduled batch: the simulated latency
	// of the iteration, with a best-effort component breakdown. The
	// batch aliases scheduler-owned buffers and is valid only for the
	// duration of the call.
	IterationLatency(b *sched.Batch) (simtime.Duration, Breakdown, error)

	// DeviceMemoryBytes reports per-device memory capacity — the basis
	// of the KV-cache budget the scheduler partitions.
	DeviceMemoryBytes() int64

	// Host returns the accumulated host wall-clock breakdown of the
	// backend's own phases (the paper's "simulation time"); the
	// Scheduler component is owned by the caller and left zero.
	Host() metrics.ComponentTimes

	// ResetStats zeroes host-time and cache instrumentation without
	// dropping result caches.
	ResetStats()
}

// Factory builds a fresh Backend instance. Cluster simulations call it
// once per replica so backend state (instrumentation, host times,
// scratch buffers) stays replica-local; a factory may still hand its
// backends a shared result cache, as the astra one does per engine
// configuration.
type Factory func() (Backend, error)
