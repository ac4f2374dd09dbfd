package llmservingsim

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kvcache"
	"repro/internal/network"
	"repro/internal/sched"
)

// The enum types below replace the artifact's stringly-typed simulation
// parameters (parallel, scheduling, kv_manage, pim_type) and name the
// serving policies layered on top. Each has a Parse function accepting
// the CLI spellings (the empty string selects the default) and a String
// method returning the canonical spelling, so round-tripping through
// flags and TSV output is lossless. All eleven (the ten below plus
// TraceDetail) implement flag.Value, so they can be bound to
// command-line flags directly with flag.Var. The zero value of every
// enum is the default, making zero-valued Config fields safe. Each
// enum's enumTable is the single place its spellings live: Parse,
// String, Set, validation, the internal mapping and the listing helpers
// all read from it.

// enumEntry is one enum value: its canonical spelling first, then any
// aliases, and the internal-package value it maps to.
type enumEntry[E ~int, I any] struct {
	val   E
	names []string
	inner I
}

// enumTable holds every value of one public enum. Entry order is the
// order of the want-list in Parse errors and of list.
type enumTable[E ~int, I any] struct {
	typ     string // type name, for String of out-of-range values
	noun    string // what Parse errors call an unknown spelling
	entries []enumEntry[E, I]
}

func (t *enumTable[E, I]) find(v E) *enumEntry[E, I] {
	for i := range t.entries {
		if t.entries[i].val == v {
			return &t.entries[i]
		}
	}
	return nil
}

// parse maps a spelling to its value; "" selects the zero value.
func (t *enumTable[E, I]) parse(s string) (E, error) {
	if s == "" {
		return 0, nil
	}
	for _, e := range t.entries {
		if slices.Contains(e.names, s) {
			return e.val, nil
		}
	}
	return 0, fmt.Errorf("llmservingsim: unknown %s %q (want %s)", t.noun, s, strings.Join(t.list(), "|"))
}

func (t *enumTable[E, I]) str(v E) string {
	if e := t.find(v); e != nil {
		return e.names[0]
	}
	return fmt.Sprintf("%s(%d)", t.typ, int(v))
}

// set implements flag.Value.Set, leaving *dst unchanged on error.
func (t *enumTable[E, I]) set(dst *E, s string) error {
	v, err := t.parse(s)
	if err == nil {
		*dst = v
	}
	return err
}

func (t *enumTable[E, I]) valid(v E) bool { return t.find(v) != nil }

// internal maps v to its internal value; out-of-range values map to the
// zero value's.
func (t *enumTable[E, I]) internal(v E) I {
	if e := t.find(v); e != nil {
		return e.inner
	}
	return t.find(0).inner
}

// list returns the canonical spellings in entry order.
func (t *enumTable[E, I]) list() []string {
	names := make([]string, len(t.entries))
	for i, e := range t.entries {
		names[i] = e.names[0]
	}
	return names
}

// Parallelism selects how the model is distributed across accelerators
// (the artifact's "parallel" parameter). The zero value is
// ParallelismHybrid, the artifact default.
type Parallelism int

const (
	// ParallelismHybrid pipelines across NPU groups and shards tensors
	// within each group (requires Config.NPUGroups).
	ParallelismHybrid Parallelism = iota
	// ParallelismTensor shards every weight matrix across all nodes.
	ParallelismTensor
	// ParallelismPipeline assigns contiguous layer ranges to nodes.
	ParallelismPipeline
)

var parallelismTable = enumTable[Parallelism, network.Parallelism]{"Parallelism", "parallelism", []enumEntry[Parallelism, network.Parallelism]{
	{ParallelismTensor, []string{"tensor"}, network.Tensor},
	{ParallelismPipeline, []string{"pipeline"}, network.Pipeline},
	{ParallelismHybrid, []string{"hybrid"}, network.Hybrid},
}}

// ParseParallelism converts the artifact's CLI values ("tensor",
// "pipeline", "hybrid"; "" selects the default, hybrid).
func ParseParallelism(s string) (Parallelism, error) { return parallelismTable.parse(s) }

func (p Parallelism) String() string { return parallelismTable.str(p) }

// Set implements flag.Value.
func (p *Parallelism) Set(s string) error { return parallelismTable.set(p, s) }

func (p Parallelism) valid() bool { return parallelismTable.valid(p) }

func (p Parallelism) internal() network.Parallelism { return parallelismTable.internal(p) }

// SchedPolicy selects the batch scheduling policy (the artifact's
// "scheduling" parameter). The zero value is SchedOrca, the artifact
// default.
type SchedPolicy int

const (
	// SchedOrca is Orca-style iteration-level scheduling: requests join
	// and leave the running batch at iteration boundaries.
	SchedOrca SchedPolicy = iota
	// SchedStatic runs each admitted batch to full completion before
	// admitting new requests.
	SchedStatic
	// SchedChunked is Orca-style continuous batching with chunked
	// prefill: prompts longer than Config.PrefillChunk are split across
	// iterations so long prefills don't stall decode latency.
	SchedChunked
)

var schedTable = enumTable[SchedPolicy, sched.Policy]{"SchedPolicy", "scheduling policy", []enumEntry[SchedPolicy, sched.Policy]{
	{SchedOrca, []string{"orca", "iteration"}, sched.Orca},
	{SchedStatic, []string{"static", "batch"}, sched.Static},
	{SchedChunked, []string{"chunked", "chunk"}, sched.Chunked},
}}

// ParseSchedPolicy converts the artifact's CLI values ("orca" or
// "iteration", "static" or "batch", plus "chunked" or "chunk"; ""
// selects the default, orca).
func ParseSchedPolicy(s string) (SchedPolicy, error) { return schedTable.parse(s) }

func (p SchedPolicy) String() string { return schedTable.str(p) }

// Set implements flag.Value.
func (p *SchedPolicy) Set(s string) error { return schedTable.set(p, s) }

func (p SchedPolicy) valid() bool { return schedTable.valid(p) }

func (p SchedPolicy) internal() sched.Policy { return schedTable.internal(p) }

// KVPolicy selects KV-cache memory management (the artifact's
// "kv_manage" parameter). The zero value is KVPaged, the artifact
// default.
type KVPolicy int

const (
	// KVPaged is vLLM-style paged allocation at KVPageTokens granularity.
	KVPaged KVPolicy = iota
	// KVMaxLen reserves each request's maximum sequence length up front.
	KVMaxLen
)

var kvTable = enumTable[KVPolicy, kvcache.Policy]{"KVPolicy", "kv policy", []enumEntry[KVPolicy, kvcache.Policy]{
	{KVPaged, []string{"vllm", "paged"}, kvcache.Paged},
	{KVMaxLen, []string{"maxlen", "max"}, kvcache.MaxLen},
}}

// ParseKVPolicy converts the artifact's CLI values ("vllm" or "paged",
// "maxlen" or "max"; "" selects the default, vllm).
func ParseKVPolicy(s string) (KVPolicy, error) { return kvTable.parse(s) }

func (p KVPolicy) String() string { return kvTable.str(p) }

// Set implements flag.Value.
func (p *KVPolicy) Set(s string) error { return kvTable.set(p, s) }

func (p KVPolicy) valid() bool { return kvTable.valid(p) }

func (p KVPolicy) internal() kvcache.Policy { return kvTable.internal(p) }

// PrefixCacheMode selects whether (and where) the KV manager caches
// shared prompt prefixes across requests. The zero value is
// PrefixCacheOff: prefix caching is strictly opt-in, leaving default
// runs bit-identical to earlier releases.
type PrefixCacheMode int

const (
	// PrefixCacheOff disables prefix caching.
	PrefixCacheOff PrefixCacheMode = iota
	// PrefixCacheGPU caches shared prefix blocks in device memory only;
	// blocks evicted under pressure are dropped and recomputed on the
	// next miss.
	PrefixCacheGPU
	// PrefixCacheTiered adds a host (CPU) spill tier: prefix blocks
	// evicted from the device spill over the host link and reload on the
	// next hit instead of being recomputed. Capacity is bounded by
	// Config.KVHostMemGB (0 = unbounded host tier).
	PrefixCacheTiered
)

var prefixCacheTable = enumTable[PrefixCacheMode, kvcache.PrefixMode]{"PrefixCacheMode", "prefix cache mode", []enumEntry[PrefixCacheMode, kvcache.PrefixMode]{
	{PrefixCacheOff, []string{"off"}, kvcache.PrefixOff},
	{PrefixCacheGPU, []string{"gpu", "device"}, kvcache.PrefixDevice},
	{PrefixCacheTiered, []string{"tiered", "cpu"}, kvcache.PrefixTiered},
}}

// ParsePrefixCacheMode converts CLI values ("off", "gpu" or "device",
// "tiered" or "cpu"; "" selects the default, off).
func ParsePrefixCacheMode(s string) (PrefixCacheMode, error) { return prefixCacheTable.parse(s) }

func (m PrefixCacheMode) String() string { return prefixCacheTable.str(m) }

// Set implements flag.Value.
func (m *PrefixCacheMode) Set(s string) error { return prefixCacheTable.set(m, s) }

func (m PrefixCacheMode) valid() bool { return prefixCacheTable.valid(m) }

func (m PrefixCacheMode) internal() kvcache.PrefixMode { return prefixCacheTable.internal(m) }

// PIMMode selects how PIM devices participate (the artifact's
// "pim_type" parameter). The zero value is PIMNone.
type PIMMode int

const (
	// PIMNone runs a homogeneous NPU system.
	PIMNone PIMMode = iota
	// PIMLocal pairs each NPU with a directly-attached PIM device
	// (Fig. 5(a)).
	PIMLocal
	// PIMPool places PIM devices in a separate pool reached over the
	// interconnect (Fig. 5(b)).
	PIMPool
)

var pimTable = enumTable[PIMMode, core.PIMMode]{"PIMMode", "pim mode", []enumEntry[PIMMode, core.PIMMode]{
	{PIMNone, []string{"none"}, core.PIMNone},
	{PIMLocal, []string{"local"}, core.PIMLocal},
	{PIMPool, []string{"pool"}, core.PIMPool},
}}

// ParsePIMMode converts the artifact's CLI values ("none", "local",
// "pool"; "" selects the default, none).
func ParsePIMMode(s string) (PIMMode, error) { return pimTable.parse(s) }

func (m PIMMode) String() string { return pimTable.str(m) }

// Set implements flag.Value.
func (m *PIMMode) Set(s string) error { return pimTable.set(m, s) }

func (m PIMMode) valid() bool { return pimTable.valid(m) }

func (m PIMMode) internal() core.PIMMode { return pimTable.internal(m) }

// PerfModel selects the performance-model backend that prices each
// simulated iteration. The zero value is PerfModelAstra, the full
// pipeline the artifact ships.
type PerfModel int

const (
	// PerfModelAstra runs the paper's full pipeline per iteration:
	// execution-engine compilation/simulation of every operator, graph
	// conversion, and discrete-event system simulation. Highest
	// fidelity; bit-identical to the pre-backend simulator.
	PerfModelAstra PerfModel = iota
	// PerfModelRoofline prices iterations analytically against a device
	// roofline (peak FLOPs vs memory bandwidth) plus analytic
	// collective costs — orders of magnitude faster, for large sweeps
	// and capacity planning.
	PerfModelRoofline
)

// PerfModel has no internal counterpart: buildOptions switches on it
// directly.
var perfModelTable = enumTable[PerfModel, struct{}]{"PerfModel", "perf model", []enumEntry[PerfModel, struct{}]{
	{PerfModelAstra, []string{"astra"}, struct{}{}},
	{PerfModelRoofline, []string{"roofline", "analytical"}, struct{}{}},
}}

// ParsePerfModel converts CLI values ("astra", "roofline" or
// "analytical"; "" selects the default, astra).
func ParsePerfModel(s string) (PerfModel, error) { return perfModelTable.parse(s) }

func (p PerfModel) String() string { return perfModelTable.str(p) }

// Set implements flag.Value.
func (p *PerfModel) Set(s string) error { return perfModelTable.set(p, s) }

func (p PerfModel) valid() bool { return perfModelTable.valid(p) }

// RouterPolicy selects how a cluster routes admitted requests across
// replicas. The zero value is RouterRoundRobin.
type RouterPolicy int

const (
	// RouterRoundRobin cycles through replicas in index order.
	RouterRoundRobin RouterPolicy = iota
	// RouterLeastLoaded places each request on the replica with the
	// fewest queued tokens (join-shortest-queue).
	RouterLeastLoaded
	// RouterAffinity hashes the request's traffic class to a fixed
	// replica, keeping shared-prefix traffic on one instance.
	RouterAffinity
	// RouterPrefixAffinity places each request on the replica caching
	// the longest prefix of its class, falling back to least-loaded when
	// no replica has any of it cached. Requires prefix caching to see
	// non-zero cache state; without it the policy is least-loaded.
	RouterPrefixAffinity
)

var routerTable = enumTable[RouterPolicy, string]{"RouterPolicy", "router", []enumEntry[RouterPolicy, string]{
	{RouterRoundRobin, []string{"round-robin", "rr"}, cluster.RouterRoundRobin},
	{RouterLeastLoaded, []string{"least-loaded", "least"}, cluster.RouterLeastLoad},
	{RouterAffinity, []string{"affinity", "session"}, cluster.RouterAffinity},
	{RouterPrefixAffinity, []string{"prefix-affinity", "prefix"}, cluster.RouterPrefixAffinity},
}}

// ParseRouterPolicy converts CLI values ("round-robin" or "rr",
// "least-loaded" or "least", "affinity" or "session", "prefix-affinity"
// or "prefix"; "" selects the default, round-robin).
func ParseRouterPolicy(s string) (RouterPolicy, error) { return routerTable.parse(s) }

func (p RouterPolicy) String() string { return routerTable.str(p) }

// Set implements flag.Value.
func (p *RouterPolicy) Set(s string) error { return routerTable.set(p, s) }

func (p RouterPolicy) valid() bool { return routerTable.valid(p) }

// internal returns the internal/cluster registry name.
func (p RouterPolicy) internal() string { return routerTable.internal(p) }

// AdmissionPolicy selects how a cluster gates arrivals before routing.
// The zero value is AdmitAll.
type AdmissionPolicy int

const (
	// AdmitAll admits every arrival (unbounded queues).
	AdmitAll AdmissionPolicy = iota
	// AdmitQueueCap rejects arrivals once the cluster holds
	// AdmissionLimit*Replicas queued requests (aggregate back-pressure;
	// per-replica balance is the router's job).
	AdmitQueueCap
	// AdmitTokenBudget rejects arrivals that would push the cluster's
	// queued token total past AdmissionLimit.
	AdmitTokenBudget
)

var admissionTable = enumTable[AdmissionPolicy, string]{"AdmissionPolicy", "admission policy", []enumEntry[AdmissionPolicy, string]{
	{AdmitAll, []string{"all", "unbounded"}, cluster.AdmitAll},
	{AdmitQueueCap, []string{"queue-cap", "queue"}, cluster.AdmitQueueCap},
	{AdmitTokenBudget, []string{"token-budget", "tokens"}, cluster.AdmitTokenBudget},
}}

// ParseAdmissionPolicy converts CLI values ("all" or "unbounded",
// "queue-cap" or "queue", "token-budget" or "tokens"; "" selects the
// default, all).
func ParseAdmissionPolicy(s string) (AdmissionPolicy, error) { return admissionTable.parse(s) }

func (p AdmissionPolicy) String() string { return admissionTable.str(p) }

// Set implements flag.Value.
func (p *AdmissionPolicy) Set(s string) error { return admissionTable.set(p, s) }

func (p AdmissionPolicy) valid() bool { return admissionTable.valid(p) }

// internal returns the internal/cluster registry name.
func (p AdmissionPolicy) internal() string { return admissionTable.internal(p) }

// AutoscalePolicy selects how a cluster resizes its fleet at runtime.
// The zero value is ScaleNone (a static fleet).
type AutoscalePolicy int

const (
	// ScaleNone keeps the fleet at its configured size.
	ScaleNone AutoscalePolicy = iota
	// ScaleQueueDepth sizes the fleet so each active replica holds at
	// most ScaleQueueTarget queued requests.
	ScaleQueueDepth
	// ScaleSLO steps the fleet by one replica per tick on SLO-attainment
	// pressure, holding inside the [ScaleSLOTarget, ScaleSLOHigh]
	// hysteresis band.
	ScaleSLO
	// ScaleScheduled follows the pre-planned ScaleSchedule step
	// function.
	ScaleScheduled
)

var autoscaleTable = enumTable[AutoscalePolicy, string]{"AutoscalePolicy", "autoscaler", []enumEntry[AutoscalePolicy, string]{
	{ScaleNone, []string{"none"}, ""},
	{ScaleQueueDepth, []string{"queue-depth", "queue"}, cluster.ScaleQueueDepth},
	{ScaleSLO, []string{"slo-target", "slo"}, cluster.ScaleSLOTarget},
	{ScaleScheduled, []string{"scheduled"}, cluster.ScaleScheduled},
}}

// ParseAutoscalePolicy converts CLI values ("none", "queue-depth" or
// "queue", "slo-target" or "slo", "scheduled"; "" selects the default,
// none).
func ParseAutoscalePolicy(s string) (AutoscalePolicy, error) { return autoscaleTable.parse(s) }

func (p AutoscalePolicy) String() string { return autoscaleTable.str(p) }

// Set implements flag.Value.
func (p *AutoscalePolicy) Set(s string) error { return autoscaleTable.set(p, s) }

func (p AutoscalePolicy) valid() bool { return autoscaleTable.valid(p) }

// internal returns the internal/cluster registry name; ScaleNone has
// none.
func (p AutoscalePolicy) internal() string { return autoscaleTable.internal(p) }

// ReplicaRole assigns a fleet entry's replicas to a serving pool in a
// disaggregated cluster. The zero value is RoleUnified: the replica
// runs both phases, the classic colocated deployment. A fleet mixing
// prefill and decode entries simulates disaggregated serving — prefill
// replicas compute the first token, then hand the KV cache to a decode
// replica over the interconnect.
type ReplicaRole int

const (
	// RoleUnified serves both prefill and decode (the default).
	RoleUnified ReplicaRole = iota
	// RolePrefill serves only the prompt phase; each request's KV cache
	// is shipped to a decode replica after the first token.
	RolePrefill
	// RoleDecode serves only the token-generation phase, starting from
	// a KV cache received from a prefill replica.
	RoleDecode
)

var roleTable = enumTable[ReplicaRole, cluster.Role]{"ReplicaRole", "replica role", []enumEntry[ReplicaRole, cluster.Role]{
	{RoleUnified, []string{"unified"}, cluster.RoleUnified},
	{RolePrefill, []string{"prefill"}, cluster.RolePrefill},
	{RoleDecode, []string{"decode"}, cluster.RoleDecode},
}}

// ParseReplicaRole converts fleet-grammar values ("unified", "prefill",
// "decode"; "" selects the default, unified).
func ParseReplicaRole(s string) (ReplicaRole, error) { return roleTable.parse(s) }

func (p ReplicaRole) String() string { return roleTable.str(p) }

// Set implements flag.Value.
func (p *ReplicaRole) Set(s string) error { return roleTable.set(p, s) }

func (p ReplicaRole) valid() bool { return roleTable.valid(p) }

// internal returns the internal/cluster role.
func (p ReplicaRole) internal() cluster.Role { return roleTable.internal(p) }
