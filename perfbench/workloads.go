package main

import (
	"context"
	"fmt"

	llm "repro"
	"repro/internal/config"
)

// scenario is one benchmark workload: a fixed simulated open-loop input
// (arrivals follow a schedule in simulated time) and the configuration
// that serves it. The plain run drives it through the public API; the
// traced run assembles the same program from the internal packages (see
// traced.go). Both are built from the fields below, so the two cannot
// drift apart without the digest comparison noticing.
type scenario struct {
	name   string
	why    string
	recipe string // equivalent llmservingsim CLI flags (plus -seed)

	// requests is the arrival count at full size; tests run smaller.
	requests int
	config   func() llm.Config

	// Single-instance scenarios synthesise a ShareGPT Poisson trace at
	// synthRate requests per second and run one Simulator.
	single    bool
	synthRate float64

	// Cluster scenarios: a static homogeneous fleet of replicas fed by
	// classes (a materialized trace, or a stream when stream is set),
	// optionally shaped into multi-turn sessions by a client population.
	replicas   int
	router     string
	classes    string
	population string
	sessions   string
	stream     bool
}

// scenarios lists the benchmark workloads in BENCHMARK.json order.
var scenarios = []scenario{
	{
		name: "paper-instance",
		why:  "the paper's setting: one gpt3-30b instance on 64 NPUs with local PIM at TP16xPP4, reuse on; the astra DES and graph conversion do most of the work",
		recipe: "-model gpt3-30b -npu-num 64 -npu-group 4 -parallel hybrid -pim-type local " +
			"-sub-batch -synth sharegpt -synth-n 512",
		requests: 512,
		config: func() llm.Config {
			cfg := llm.DefaultConfig()
			cfg.Model = "gpt3-30b"
			cfg.NPUs = 64
			cfg.NPUGroups = 4
			cfg.Parallelism = llm.ParallelismHybrid
			cfg.PIMType = llm.PIMLocal
			cfg.SubBatches = 2
			return cfg
		},
		single:    true,
		synthRate: 4,
	},
	{
		name: "astra-fleet",
		why:  "eight small astra replicas with pinched memory: the engine result cache dominates and KV eviction and reload are exercised",
		recipe: "-model gpt3-7b -npu-num 4 -parallel tensor -npu-mem 5 -replicas 8 -router least-loaded " +
			"-classes chat:sharegpt:40:1000:100,api:alpaca:60:500:50 -requests 2500",
		requests: 2500,
		config: func() llm.Config {
			cfg := llm.DefaultConfig()
			cfg.Model = "gpt3-7b"
			cfg.NPUs = 4
			cfg.Parallelism = llm.ParallelismTensor
			cfg.NPU.MemoryBytes = 5 * config.GB
			return cfg
		},
		replicas: 8,
		router:   "least-loaded",
		classes:  "chat:sharegpt:40:1000:100,api:alpaca:60:500:50",
	},
	{
		name: "session-prefix",
		why:  "multi-turn sessions over 16 roofline replicas with tiered prefix caching: prefix lookups, host spills and reloads dominate",
		recipe: "-model gpt3-7b -npu-num 2 -parallel tensor -perf-model roofline -hardware rtx3090 " +
			"-replicas 16 -router prefix-affinity -scheduling chunked -prefix-cache tiered -kv-host-mem 64 " +
			"-classes chat:alpaca:40:1000:100:256,agent:fixed-384-64:40:500:50:512 " +
			"-population 2000:zipf:1.1:0.3:600:3:0.1:30 -sessions 4:20:0.6:768 -requests 6000 -stream",
		requests: 6000,
		config: func() llm.Config {
			cfg := llm.DefaultConfig()
			cfg.Model = "gpt3-7b"
			cfg.NPUs = 2
			cfg.Parallelism = llm.ParallelismTensor
			cfg.PerfModel = llm.PerfModelRoofline
			cfg.Hardware = "rtx3090"
			cfg.Scheduling = llm.SchedChunked
			cfg.PrefixCache = llm.PrefixCacheTiered
			cfg.KVHostMemGB = 64
			return cfg
		},
		replicas:   16,
		router:     "prefix-affinity",
		classes:    "chat:alpaca:40:1000:100:256,agent:fixed-384-64:40:500:50:512",
		population: "2000:zipf:1.1:0.3:600:3:0.1:30",
		sessions:   "4:20:0.6:768",
		stream:     true,
	},
	{
		name: "fleet-scale",
		why:  "short requests at a high rate over 256 roofline replicas: routing snapshots, the event heap, roofline caches and streaming metrics dominate",
		recipe: "-model llama-7b -npu-num 1 -perf-model roofline -hardware a100 -replicas 256 -router least-loaded " +
			"-classes api:fixed-128-32:2400:500:50,chat:alpaca:800:1000:100 -requests 24000 -stream",
		requests: 24000,
		config: func() llm.Config {
			cfg := llm.DefaultConfig()
			cfg.Model = "llama-7b"
			cfg.NPUs = 1
			cfg.PerfModel = llm.PerfModelRoofline
			cfg.Hardware = "a100"
			return cfg
		},
		replicas: 256,
		router:   "least-loaded",
		classes:  "api:fixed-128-32:2400:500:50,chat:alpaca:800:1000:100",
		stream:   true,
	},
}

// lookupScenario returns the named workload.
func lookupScenario(name string) (scenario, error) {
	for _, sc := range scenarios {
		if sc.name == name {
			return sc, nil
		}
	}
	names := make([]string, len(scenarios))
	for i, sc := range scenarios {
		names[i] = sc.name
	}
	return scenario{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// simCall is the measured simulation call of one run.
type simCall func(ctx context.Context) (outcome, error)

// setupPlain builds the scenario through the public API exactly as the
// llmservingsim CLI does, returning the simulation call the benchmark
// times. Everything before the call is set-up.
func (sc scenario) setupPlain(n int, seed int64) (simCall, error) {
	cfg := sc.config()
	if sc.single {
		trace, err := llm.ShareGPTTrace(n, sc.synthRate, seed)
		if err != nil {
			return nil, err
		}
		sim, err := llm.NewFromConfig(cfg, trace)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context) (outcome, error) {
			rep, err := sim.RunContext(ctx)
			if err != nil {
				return outcome{}, err
			}
			return singleOutcomePublic(rep, n), nil
		}, nil
	}

	classes, err := llm.ParseTrafficClasses(sc.classes)
	if err != nil {
		return nil, err
	}
	router, err := llm.ParseRouterPolicy(sc.router)
	if err != nil {
		return nil, err
	}
	cs := llm.ClusterScenario{
		Name:          sc.name,
		Config:        cfg,
		Replicas:      sc.replicas,
		Router:        router,
		Classes:       classes,
		StreamMetrics: sc.stream,
	}
	switch {
	case sc.population != "":
		pop, err := llm.ParsePopulation(sc.population)
		if err != nil {
			return nil, err
		}
		sess, err := llm.ParseSessionSpec(sc.sessions)
		if err != nil {
			return nil, err
		}
		if cs.TraceStream, err = llm.NewPopulationStream(classes, pop, sess, n, seed); err != nil {
			return nil, err
		}
	case sc.stream:
		if cs.TraceStream, err = llm.NewMultiClassStream(classes, n, llm.Ramp{}, seed); err != nil {
			return nil, err
		}
	default:
		if cs.Trace, err = llm.MultiClassTrace(classes, n, llm.Ramp{}, seed); err != nil {
			return nil, err
		}
	}
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	return func(ctx context.Context) (outcome, error) {
		rep, err := cs.RunContext(ctx)
		if err != nil {
			return outcome{}, err
		}
		return clusterOutcomePublic(rep), nil
	}, nil
}
