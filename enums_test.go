package llmservingsim

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/kvcache"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sched"
)

// enumSurface pins one enum's public surface: every accepted spelling,
// the unknown-spelling error, String of every value (and of the values
// just outside the range), valid, and the internal mapping.
type enumSurface[E ~int] struct {
	typ      string                  // type name, as in out-of-range String
	parse    func(string) (E, error) // the exported Parse function
	accept   map[string]E            // every accepted spelling, "" included
	names    []string                // String() of E(0), E(1), ...
	bogusErr string                  // exact Parse("bogus") error
	internal func(E) any             // nil when the enum has no internal mapping
	inner    []any                   // internal() of E(0), E(1), ...
}

func checkEnumSurface[E interface {
	~int
	fmt.Stringer
}, P interface {
	*E
	flag.Value
}](t *testing.T, s enumSurface[E], valid func(E) bool) {
	t.Helper()
	for in, want := range s.accept {
		got, err := s.parse(in)
		if err != nil || got != want {
			t.Errorf("%s: Parse(%q) = %v, %v; want %v", s.typ, in, got, err, want)
		}
	}
	if _, err := s.parse("bogus"); err == nil || err.Error() != s.bogusErr {
		t.Errorf("%s: Parse(\"bogus\") error = %v; want %q", s.typ, err, s.bogusErr)
	}
	for i, want := range s.names {
		if got := E(i).String(); got != want {
			t.Errorf("%s: String(%d) = %q; want %q", s.typ, i, got, want)
		}
		if !valid(E(i)) {
			t.Errorf("%s: value %d not valid", s.typ, i)
		}
		if v, err := s.parse(want); err != nil || v != E(i) {
			t.Errorf("%s: canonical %q parses to %v, %v", s.typ, want, v, err)
		}
	}
	for _, out := range []int{-1, len(s.names)} {
		if got, want := E(out).String(), fmt.Sprintf("%s(%d)", s.typ, out); got != want {
			t.Errorf("%s: String(%d) = %q; want %q", s.typ, out, got, want)
		}
		if valid(E(out)) {
			t.Errorf("%s: out-of-range value %d reported valid", s.typ, out)
		}
	}
	if s.internal != nil {
		if len(s.inner) != len(s.names) {
			t.Fatalf("%s: %d internal values for %d names", s.typ, len(s.inner), len(s.names))
		}
		for i, want := range s.inner {
			if got := s.internal(E(i)); got != want {
				t.Errorf("%s: internal(%d) = %v; want %v", s.typ, i, got, want)
			}
		}
		// Out-of-range values map to the zero value's internal value.
		for _, out := range []int{-1, len(s.names)} {
			if got := s.internal(E(out)); got != s.inner[0] {
				t.Errorf("%s: internal(%d) = %v; want %v", s.typ, out, got, s.inner[0])
			}
		}
	}
	// Set stores a parsed value and leaves the destination unchanged on
	// error.
	last := E(len(s.names) - 1)
	dst := last
	if err := P(&dst).Set("bogus"); err == nil || err.Error() != s.bogusErr || dst != last {
		t.Errorf("%s: Set(\"bogus\") = %v, left %v; want %q, %v", s.typ, err, dst, s.bogusErr, last)
	}
	if err := P(&dst).Set(s.names[0]); err != nil || dst != 0 {
		t.Errorf("%s: Set(%q) = %v, stored %v", s.typ, s.names[0], err, dst)
	}
}

// TestEnumSurface pins every public enum's spellings, aliases, error
// strings, out-of-range String, valid/internal results, and the
// listing helpers, so the enums' one source of truth cannot drift.
func TestEnumSurface(t *testing.T) {
	checkEnumSurface(t, enumSurface[Parallelism]{
		typ:   "Parallelism",
		parse: ParseParallelism,
		accept: map[string]Parallelism{
			"": ParallelismHybrid, "hybrid": ParallelismHybrid,
			"tensor": ParallelismTensor, "pipeline": ParallelismPipeline,
		},
		names:    []string{"hybrid", "tensor", "pipeline"},
		bogusErr: `llmservingsim: unknown parallelism "bogus" (want tensor|pipeline|hybrid)`,
		internal: func(p Parallelism) any { return p.internal() },
		inner:    []any{network.Hybrid, network.Tensor, network.Pipeline},
	}, Parallelism.valid)
	checkEnumSurface(t, enumSurface[SchedPolicy]{
		typ:   "SchedPolicy",
		parse: ParseSchedPolicy,
		accept: map[string]SchedPolicy{
			"": SchedOrca, "orca": SchedOrca, "iteration": SchedOrca,
			"static": SchedStatic, "batch": SchedStatic,
			"chunked": SchedChunked, "chunk": SchedChunked,
		},
		names:    []string{"orca", "static", "chunked"},
		bogusErr: `llmservingsim: unknown scheduling policy "bogus" (want orca|static|chunked)`,
		internal: func(p SchedPolicy) any { return p.internal() },
		inner:    []any{sched.Orca, sched.Static, sched.Chunked},
	}, SchedPolicy.valid)
	checkEnumSurface(t, enumSurface[KVPolicy]{
		typ:   "KVPolicy",
		parse: ParseKVPolicy,
		accept: map[string]KVPolicy{
			"": KVPaged, "vllm": KVPaged, "paged": KVPaged,
			"maxlen": KVMaxLen, "max": KVMaxLen,
		},
		names:    []string{"vllm", "maxlen"},
		bogusErr: `llmservingsim: unknown kv policy "bogus" (want vllm|maxlen)`,
		internal: func(p KVPolicy) any { return p.internal() },
		inner:    []any{kvcache.Paged, kvcache.MaxLen},
	}, KVPolicy.valid)
	checkEnumSurface(t, enumSurface[PrefixCacheMode]{
		typ:   "PrefixCacheMode",
		parse: ParsePrefixCacheMode,
		accept: map[string]PrefixCacheMode{
			"": PrefixCacheOff, "off": PrefixCacheOff,
			"gpu": PrefixCacheGPU, "device": PrefixCacheGPU,
			"tiered": PrefixCacheTiered, "cpu": PrefixCacheTiered,
		},
		names:    []string{"off", "gpu", "tiered"},
		bogusErr: `llmservingsim: unknown prefix cache mode "bogus" (want off|gpu|tiered)`,
		internal: func(m PrefixCacheMode) any { return m.internal() },
		inner:    []any{kvcache.PrefixOff, kvcache.PrefixDevice, kvcache.PrefixTiered},
	}, PrefixCacheMode.valid)
	checkEnumSurface(t, enumSurface[PIMMode]{
		typ:   "PIMMode",
		parse: ParsePIMMode,
		accept: map[string]PIMMode{
			"": PIMNone, "none": PIMNone, "local": PIMLocal, "pool": PIMPool,
		},
		names:    []string{"none", "local", "pool"},
		bogusErr: `llmservingsim: unknown pim mode "bogus" (want none|local|pool)`,
		internal: func(m PIMMode) any { return m.internal() },
		inner:    []any{core.PIMNone, core.PIMLocal, core.PIMPool},
	}, PIMMode.valid)
	checkEnumSurface(t, enumSurface[PerfModel]{
		typ:   "PerfModel",
		parse: ParsePerfModel,
		accept: map[string]PerfModel{
			"": PerfModelAstra, "astra": PerfModelAstra,
			"roofline": PerfModelRoofline, "analytical": PerfModelRoofline,
		},
		names:    []string{"astra", "roofline"},
		bogusErr: `llmservingsim: unknown perf model "bogus" (want astra|roofline)`,
	}, PerfModel.valid)
	checkEnumSurface(t, enumSurface[RouterPolicy]{
		typ:   "RouterPolicy",
		parse: ParseRouterPolicy,
		accept: map[string]RouterPolicy{
			"": RouterRoundRobin, "round-robin": RouterRoundRobin, "rr": RouterRoundRobin,
			"least-loaded": RouterLeastLoaded, "least": RouterLeastLoaded,
			"affinity": RouterAffinity, "session": RouterAffinity,
			"prefix-affinity": RouterPrefixAffinity, "prefix": RouterPrefixAffinity,
		},
		names:    []string{"round-robin", "least-loaded", "affinity", "prefix-affinity"},
		bogusErr: `llmservingsim: unknown router "bogus" (want round-robin|least-loaded|affinity|prefix-affinity)`,
		internal: func(p RouterPolicy) any { return p.internal() },
		inner: []any{cluster.RouterRoundRobin, cluster.RouterLeastLoad,
			cluster.RouterAffinity, cluster.RouterPrefixAffinity},
	}, RouterPolicy.valid)
	checkEnumSurface(t, enumSurface[AdmissionPolicy]{
		typ:   "AdmissionPolicy",
		parse: ParseAdmissionPolicy,
		accept: map[string]AdmissionPolicy{
			"": AdmitAll, "all": AdmitAll, "unbounded": AdmitAll,
			"queue-cap": AdmitQueueCap, "queue": AdmitQueueCap,
			"token-budget": AdmitTokenBudget, "tokens": AdmitTokenBudget,
		},
		names:    []string{"all", "queue-cap", "token-budget"},
		bogusErr: `llmservingsim: unknown admission policy "bogus" (want all|queue-cap|token-budget)`,
		internal: func(p AdmissionPolicy) any { return p.internal() },
		inner:    []any{cluster.AdmitAll, cluster.AdmitQueueCap, cluster.AdmitTokenBudget},
	}, AdmissionPolicy.valid)
	checkEnumSurface(t, enumSurface[AutoscalePolicy]{
		typ:   "AutoscalePolicy",
		parse: ParseAutoscalePolicy,
		accept: map[string]AutoscalePolicy{
			"": ScaleNone, "none": ScaleNone,
			"queue-depth": ScaleQueueDepth, "queue": ScaleQueueDepth,
			"slo-target": ScaleSLO, "slo": ScaleSLO,
			"scheduled": ScaleScheduled,
		},
		names:    []string{"none", "queue-depth", "slo-target", "scheduled"},
		bogusErr: `llmservingsim: unknown autoscaler "bogus" (want none|queue-depth|slo-target|scheduled)`,
		internal: func(p AutoscalePolicy) any { return p.internal() },
		inner:    []any{"", cluster.ScaleQueueDepth, cluster.ScaleSLOTarget, cluster.ScaleScheduled},
	}, AutoscalePolicy.valid)
	checkEnumSurface(t, enumSurface[ReplicaRole]{
		typ:   "ReplicaRole",
		parse: ParseReplicaRole,
		accept: map[string]ReplicaRole{
			"": RoleUnified, "unified": RoleUnified,
			"prefill": RolePrefill, "decode": RoleDecode,
		},
		names:    []string{"unified", "prefill", "decode"},
		bogusErr: `llmservingsim: unknown replica role "bogus" (want unified|prefill|decode)`,
		internal: func(p ReplicaRole) any { return p.internal() },
		inner:    []any{cluster.RoleUnified, cluster.RolePrefill, cluster.RoleDecode},
	}, ReplicaRole.valid)
	// TraceDetail's zero value is spans, but its error message and
	// listing order is decisions|spans|full.
	checkEnumSurface(t, enumSurface[TraceDetail]{
		typ:   "TraceDetail",
		parse: ParseTraceDetail,
		accept: map[string]TraceDetail{
			"": TraceSpans, "spans": TraceSpans,
			"decisions": TraceDecisions, "full": TraceFull,
		},
		names:    []string{"spans", "decisions", "full"},
		bogusErr: `llmservingsim: unknown trace detail "bogus" (want decisions|spans|full)`,
		internal: func(d TraceDetail) any { return d.internal() },
		inner:    []any{obs.DetailSpans, obs.DetailDecisions, obs.DetailFull},
	}, func(d TraceDetail) bool { return d >= TraceSpans && d <= TraceFull })

	for _, l := range []struct {
		name      string
		got, want []string
	}{
		{"SchedPolicies", SchedPolicies(), []string{"orca", "static", "chunked"}},
		{"PerfModels", PerfModels(), []string{"astra", "roofline"}},
		{"PrefixCacheModes", PrefixCacheModes(), []string{"off", "gpu", "tiered"}},
		{"TraceDetails", TraceDetails(), []string{"decisions", "spans", "full"}},
		// The registry listings are sorted by name.
		{"Routers", Routers(), []string{"affinity", "least-loaded", "prefix-affinity", "round-robin"}},
		{"Admissions", Admissions(), []string{"all", "queue-cap", "token-budget"}},
		{"Autoscalers", Autoscalers(), []string{"queue-depth", "scheduled", "slo-target"}},
	} {
		if !slices.Equal(l.got, l.want) {
			t.Errorf("%s() = %q; want %q", l.name, l.got, l.want)
		}
	}
}

// TestEnumRoundTrips: every enum value survives String -> Parse, and the
// artifact's alias spellings parse to the same values.
func TestEnumRoundTrips(t *testing.T) {
	for _, p := range []Parallelism{ParallelismHybrid, ParallelismTensor, ParallelismPipeline} {
		got, err := ParseParallelism(p.String())
		if err != nil || got != p {
			t.Errorf("Parallelism %v round-trip: got %v, %v", p, got, err)
		}
	}
	for _, p := range []SchedPolicy{SchedOrca, SchedStatic} {
		got, err := ParseSchedPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("SchedPolicy %v round-trip: got %v, %v", p, got, err)
		}
	}
	for _, p := range []KVPolicy{KVPaged, KVMaxLen} {
		got, err := ParseKVPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("KVPolicy %v round-trip: got %v, %v", p, got, err)
		}
	}
	for _, m := range []PIMMode{PIMNone, PIMLocal, PIMPool} {
		got, err := ParsePIMMode(m.String())
		if err != nil || got != m {
			t.Errorf("PIMMode %v round-trip: got %v, %v", m, got, err)
		}
	}

	if v, _ := ParseSchedPolicy("iteration"); v != SchedOrca {
		t.Errorf("alias iteration: %v", v)
	}
	if v, _ := ParseSchedPolicy("batch"); v != SchedStatic {
		t.Errorf("alias batch: %v", v)
	}
	if v, _ := ParseKVPolicy("paged"); v != KVPaged {
		t.Errorf("alias paged: %v", v)
	}
	if v, _ := ParseKVPolicy("max"); v != KVMaxLen {
		t.Errorf("alias max: %v", v)
	}
	for _, p := range []PerfModel{PerfModelAstra, PerfModelRoofline} {
		got, err := ParsePerfModel(p.String())
		if err != nil || got != p {
			t.Errorf("PerfModel %v round-trip: got %v, %v", p, got, err)
		}
	}
	if v, _ := ParsePerfModel("analytical"); v != PerfModelRoofline {
		t.Errorf("alias analytical: %v", v)
	}
	if v, _ := ParsePerfModel(""); v != PerfModelAstra {
		t.Errorf("empty perf model default: %v", v)
	}
	if _, err := ParsePerfModel("magic"); err == nil {
		t.Error("ParsePerfModel accepted garbage")
	}
	var pm PerfModel
	var _ flag.Value = &pm
	if err := pm.Set("roofline"); err != nil || pm != PerfModelRoofline {
		t.Errorf("PerfModel.Set: %v, %v", pm, err)
	}
}

// TestClusterEnumRoundTrips covers the cluster routing and admission
// enums: String -> Parse round-trips, aliases, empty-string defaults,
// invalid values, and the flag.Value contract.
func TestClusterEnumRoundTrips(t *testing.T) {
	for _, p := range []RouterPolicy{RouterRoundRobin, RouterLeastLoaded, RouterAffinity} {
		got, err := ParseRouterPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("RouterPolicy %v round-trip: got %v, %v", p, got, err)
		}
	}
	for _, p := range []AdmissionPolicy{AdmitAll, AdmitQueueCap, AdmitTokenBudget} {
		got, err := ParseAdmissionPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("AdmissionPolicy %v round-trip: got %v, %v", p, got, err)
		}
	}
	if v, _ := ParseRouterPolicy("rr"); v != RouterRoundRobin {
		t.Errorf("alias rr: %v", v)
	}
	if v, _ := ParseRouterPolicy("least"); v != RouterLeastLoaded {
		t.Errorf("alias least: %v", v)
	}
	if v, _ := ParseRouterPolicy("session"); v != RouterAffinity {
		t.Errorf("alias session: %v", v)
	}
	if v, _ := ParseAdmissionPolicy("unbounded"); v != AdmitAll {
		t.Errorf("alias unbounded: %v", v)
	}
	if v, _ := ParseAdmissionPolicy("queue"); v != AdmitQueueCap {
		t.Errorf("alias queue: %v", v)
	}
	if v, _ := ParseAdmissionPolicy("tokens"); v != AdmitTokenBudget {
		t.Errorf("alias tokens: %v", v)
	}
	if v, err := ParseRouterPolicy(""); err != nil || v != RouterRoundRobin {
		t.Errorf("empty router: %v, %v", v, err)
	}
	if v, err := ParseAdmissionPolicy(""); err != nil || v != AdmitAll {
		t.Errorf("empty admission: %v, %v", v, err)
	}
	if _, err := ParseRouterPolicy("bogus"); err == nil {
		t.Error("bogus router must fail")
	}
	if _, err := ParseAdmissionPolicy("bogus"); err == nil {
		t.Error("bogus admission must fail")
	}
	for _, p := range []AutoscalePolicy{ScaleNone, ScaleQueueDepth, ScaleSLO, ScaleScheduled} {
		got, err := ParseAutoscalePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("AutoscalePolicy %v round-trip: got %v, %v", p, got, err)
		}
	}
	if v, _ := ParseAutoscalePolicy("queue"); v != ScaleQueueDepth {
		t.Errorf("alias queue: %v", v)
	}
	if v, _ := ParseAutoscalePolicy("slo"); v != ScaleSLO {
		t.Errorf("alias slo: %v", v)
	}
	if v, err := ParseAutoscalePolicy(""); err != nil || v != ScaleNone {
		t.Errorf("empty autoscaler: %v, %v", v, err)
	}
	if _, err := ParseAutoscalePolicy("bogus"); err == nil {
		t.Error("bogus autoscaler must fail")
	}
	var as AutoscalePolicy
	asFS := flag.NewFlagSet("t", flag.ContinueOnError)
	asFS.SetOutput(io.Discard)
	asFS.Var(&as, "autoscaler", "")
	if err := asFS.Parse([]string{"-autoscaler", "slo-target"}); err != nil || as != ScaleSLO {
		t.Errorf("autoscaler flag parse: %v, %v", as, err)
	}
	if Autoscalers() == nil {
		t.Error("autoscaler registry listing must be non-empty")
	}

	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var r RouterPolicy
	var a AdmissionPolicy
	fs.Var(&r, "router", "")
	fs.Var(&a, "admission", "")
	if err := fs.Parse([]string{"-router", "least-loaded", "-admission", "token-budget"}); err != nil {
		t.Fatal(err)
	}
	if r != RouterLeastLoaded || a != AdmitTokenBudget {
		t.Errorf("flag parse: %v, %v", r, a)
	}
	if err := fs.Parse([]string{"-router", "bogus"}); err == nil {
		t.Error("bogus router flag must fail")
	}
	// The registry-facing names resolve for every enum value.
	if Routers() == nil || Admissions() == nil {
		t.Error("registry listings must be non-empty")
	}
}

// TestEnumDefaultsAndErrors: the empty string selects the artifact
// default (matching the enums' zero values), and garbage is rejected.
func TestEnumDefaultsAndErrors(t *testing.T) {
	if v, err := ParseParallelism(""); err != nil || v != ParallelismHybrid {
		t.Errorf("empty parallelism: %v, %v", v, err)
	}
	if v, err := ParseSchedPolicy(""); err != nil || v != SchedOrca {
		t.Errorf("empty scheduling: %v, %v", v, err)
	}
	if v, err := ParseKVPolicy(""); err != nil || v != KVPaged {
		t.Errorf("empty kv: %v, %v", v, err)
	}
	if v, err := ParsePIMMode(""); err != nil || v != PIMNone {
		t.Errorf("empty pim: %v, %v", v, err)
	}
	if _, err := ParseParallelism("nope"); err == nil {
		t.Error("bad parallelism accepted")
	}
	if _, err := ParseSchedPolicy("nope"); err == nil {
		t.Error("bad scheduling accepted")
	}
	if _, err := ParseKVPolicy("nope"); err == nil {
		t.Error("bad kv accepted")
	}
	if _, err := ParsePIMMode("nope"); err == nil {
		t.Error("bad pim accepted")
	}
}

// TestEnumFlagValues: the enums bind to command-line flags via flag.Var.
func TestEnumFlagValues(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var (
		par   Parallelism
		sched SchedPolicy
		kv    KVPolicy
		pim   PIMMode
	)
	fs.Var(&par, "parallel", "")
	fs.Var(&sched, "scheduling", "")
	fs.Var(&kv, "kv-manage", "")
	fs.Var(&pim, "pim-type", "")
	err := fs.Parse([]string{"-parallel", "tensor", "-scheduling", "static", "-kv-manage", "maxlen", "-pim-type", "pool"})
	if err != nil {
		t.Fatal(err)
	}
	if par != ParallelismTensor || sched != SchedStatic || kv != KVMaxLen || pim != PIMPool {
		t.Fatalf("parsed %v %v %v %v", par, sched, kv, pim)
	}
	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	fs2.SetOutput(&strings.Builder{})
	fs2.Var(&par, "parallel", "")
	if err := fs2.Parse([]string{"-parallel", "bogus"}); err == nil {
		t.Fatal("bogus flag value accepted")
	}
}

// TestConfigValidate: every constraint yields a *ConfigError naming the
// offending field.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Config)
		field string
	}{
		{"unknown model", func(c *Config) { c.Model = "nope" }, "Model"},
		{"zero npus", func(c *Config) { c.NPUs = 0 }, "NPUs"},
		{"negative npus", func(c *Config) { c.NPUs = -4 }, "NPUs"},
		{"bad parallelism", func(c *Config) { c.Parallelism = Parallelism(99) }, "Parallelism"},
		{"negative groups", func(c *Config) { c.NPUGroups = -1 }, "NPUGroups"},
		{"indivisible groups", func(c *Config) { c.NPUs = 10; c.NPUGroups = 3 }, "NPUGroups"},
		{"bad scheduling", func(c *Config) { c.Scheduling = SchedPolicy(99) }, "Scheduling"},
		{"bad kv", func(c *Config) { c.KVManage = KVPolicy(99) }, "KVManage"},
		{"bad pim", func(c *Config) { c.PIMType = PIMMode(99) }, "PIMType"},
		{"negative max batch", func(c *Config) { c.MaxBatch = -1 }, "MaxBatch"},
		{"negative batch delay", func(c *Config) { c.BatchDelay = -1 }, "BatchDelay"},
		{"negative page tokens", func(c *Config) { c.KVPageTokens = -16 }, "KVPageTokens"},
		{"negative pim pool", func(c *Config) { c.PIMPoolSize = -2 }, "PIMPoolSize"},
		{"negative sub batches", func(c *Config) { c.SubBatches = -2 }, "SubBatches"},
		{"sub batch without pim", func(c *Config) { c.SubBatches = 2; c.PIMType = PIMNone }, "SubBatches"},
		{"bad link bandwidth", func(c *Config) { c.Link.BandwidthBytes = -5 }, "Link"},
		{"bad npu frequency", func(c *Config) { c.NPU.FrequencyHz = -1 }, "NPU"},
		// A partially filled hardware block must fail loudly instead of
		// being silently replaced by the Table I defaults.
		{"partial npu block", func(c *Config) { c.NPU = config.NPUConfig{MemoryBytes: 8 << 30} }, "NPU"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("expected error")
			}
			ce, ok := AsConfigError(err)
			if !ok {
				t.Fatalf("not a ConfigError: %v", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("field %q, want %q (%v)", ce.Field, tc.field, err)
			}
			// The constructor surfaces the same typed error.
			if _, nerr := NewFromConfig(cfg, UniformTrace(2, 16, 2)); nerr == nil {
				t.Fatal("constructor accepted invalid config")
			} else if _, ok := AsConfigError(nerr); !ok {
				t.Fatalf("constructor error not typed: %v", nerr)
			}
		})
	}

	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	// A minimal config relies on enum zero values being the defaults.
	minimal := Config{Model: "gpt2", NPUs: 4}
	if err := minimal.Validate(); err != nil {
		t.Fatalf("minimal config invalid: %v", err)
	}
	if _, err := NewFromConfig(minimal, UniformTrace(2, 16, 2)); err != nil {
		t.Fatalf("minimal config rejected: %v", err)
	}
}

// TestConfigErrorUnwrap: wrapped causes (the model registry's error)
// survive errors.Is/As chains.
func TestConfigErrorUnwrap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Model = "nope"
	err := cfg.Validate()
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("errors.As failed on %v", err)
	}
	if ce.Err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("cause not preserved: %+v", ce)
	}
}
