package main

import (
	"cmp"
	"context"
	"fmt"
	"time"

	llm "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/perfmodel"
	astrabackend "repro/internal/perfmodel/astra"
	"repro/internal/perfmodel/roofline"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// The traced run assembles each scenario from the internal packages and
// times every layer from outside, by wrapping the interfaces those
// packages already expose: the arrival stream (workload.Stream), the
// router and admission gate (cluster.Router, cluster.Admission) and the
// performance-model backend (perfmodel.Factory/Backend). It then reads
// the counters and host-time splits the layers already publish. No
// simulator code changes; the traced run must produce the same digest as
// the plain public-API run, which proves the ledger measured the same
// program.

// ledger accumulates the host time and call counts measured around the
// wrapped interfaces during one traced run. It also keeps the replicas
// and backends it built so their own counters can be read afterwards.
type ledger struct {
	pull, route, admit, pricing, build time.Duration
	pulls, routes, admits, pricings    int64
	promptTokens                       int64
	batchSum, batches                  int64

	sims     []*core.Simulator
	backends []perfmodel.Backend // unwrapped, in replica order
}

// timedStream wraps an arrival stream, timing each pull. It also lifts
// every request across the same nanosecond boundary the public API's
// stream adapter applies, so the traced run sees the public run's
// arrivals bit for bit.
type timedStream struct {
	inner workload.Stream
	led   *ledger
}

func (s *timedStream) Next() (workload.Request, bool) {
	t0 := time.Now()
	r, ok := s.inner.Next()
	s.led.pull += time.Since(t0)
	if !ok {
		return workload.Request{}, false
	}
	s.led.pulls++
	s.led.promptTokens += int64(r.InputLen)
	return publicBoundary(r, 0), true
}

func (s *timedStream) Err() error { return workload.StreamErr(s.inner) }

func (s *timedStream) Target() int {
	n, _ := workload.StreamTarget(s.inner)
	return n
}

// publicBoundary reproduces the public API's request conversion: the
// arrival is carried as a time.Duration (nanoseconds) and IDs are
// assigned by position.
func publicBoundary(r workload.Request, id int) workload.Request {
	r.ID = id
	r.Arrival = simtime.Time(simtime.FromStd(simtime.Duration(r.Arrival).Std()))
	return r
}

type timedRouter struct {
	cluster.Router
	led *ledger
}

func (r timedRouter) Route(req workload.Request, replicas []cluster.ReplicaState) int {
	t0 := time.Now()
	i := r.Router.Route(req, replicas)
	r.led.route += time.Since(t0)
	r.led.routes++
	return i
}

type timedAdmission struct {
	cluster.Admission
	led *ledger
}

func (a timedAdmission) Admit(req workload.Request, replicas []cluster.ReplicaState) bool {
	t0 := time.Now()
	ok := a.Admission.Admit(req, replicas)
	a.led.admit += time.Since(t0)
	a.led.admits++
	return ok
}

// timedBackend times IterationLatency and forwards everything else.
type timedBackend struct {
	perfmodel.Backend
	led *ledger
}

func (b timedBackend) IterationLatency(batch *sched.Batch) (simtime.Duration, perfmodel.Breakdown, error) {
	t0 := time.Now()
	d, bd, err := b.Backend.IterationLatency(batch)
	b.led.pricing += time.Since(t0)
	b.led.pricings++
	return d, bd, err
}

// coreOptions converts a public Config into core options the way the
// public constructors do, for the subset of fields the scenarios use,
// with the backend factory wrapped by the ledger. It also returns the
// replica's capacity-cost weight. Fields the conversion does not mirror
// are refused, so a new scenario cannot silently diverge from the plain
// run.
func coreOptions(cfg llm.Config, led *ledger) (core.Options, float64, error) {
	if err := cfg.Validate(); err != nil {
		return core.Options{}, 0, err
	}
	if cfg.UseGPUEngine || cfg.PIMType == llm.PIMPool || cfg.Telemetry != nil || cfg.OnIteration != nil ||
		(cfg.PerfModel == llm.PerfModelAstra && cfg.Hardware != "") {
		return core.Options{}, 0, fmt.Errorf("traced assembly does not mirror this configuration")
	}
	m := model.MustLookup(cfg.Model) // Validate checked the name
	par := map[llm.Parallelism]network.Parallelism{
		llm.ParallelismTensor:   network.Tensor,
		llm.ParallelismPipeline: network.Pipeline,
		llm.ParallelismHybrid:   network.Hybrid,
	}[cfg.Parallelism]
	topo, err := network.Build(par, cfg.NPUs, cmp.Or(cfg.NPUGroups, 1), cfg.Link, cfg.Link)
	if err != nil {
		return core.Options{}, 0, err
	}
	pim := map[llm.PIMMode]core.PIMMode{llm.PIMNone: core.PIMNone, llm.PIMLocal: core.PIMLocal}[cfg.PIMType]
	reuse := core.ReuseOptions{ModelRedundancy: cfg.ModelRedundancyReuse, ComputationReuse: cfg.ComputationReuse}
	opts := core.Options{
		Model:   m,
		Topo:    topo,
		NPU:     cfg.NPU,
		PIM:     cfg.PIM,
		PIMMode: pim,
		Sched: sched.Config{
			Policy: map[llm.SchedPolicy]sched.Policy{
				llm.SchedOrca: sched.Orca, llm.SchedStatic: sched.Static, llm.SchedChunked: sched.Chunked,
			}[cfg.Scheduling],
			MaxBatch:    cfg.MaxBatch,
			BatchDelay:  simtime.FromStd(cfg.BatchDelay),
			SubBatches:  max(cfg.SubBatches, 1),
			SkipPrefill: cfg.SkipInitiation,
			ChunkTokens: cfg.PrefillChunk,
		},
		SelectiveBatching: cfg.SelectiveBatching,
		KVPolicy:          map[llm.KVPolicy]kvcache.Policy{llm.KVPaged: kvcache.Paged, llm.KVMaxLen: kvcache.MaxLen}[cfg.KVManage],
		KVPageTokens:      cfg.KVPageTokens,
		KVPrefix: map[llm.PrefixCacheMode]kvcache.PrefixMode{
			llm.PrefixCacheOff: kvcache.PrefixOff, llm.PrefixCacheGPU: kvcache.PrefixDevice, llm.PrefixCacheTiered: kvcache.PrefixTiered,
		}[cfg.PrefixCache],
		KVHostBytes:      int64(cfg.KVHostMemGB * (1 << 30)),
		Reuse:            reuse,
		ThroughputWindow: simtime.FromStd(cfg.ThroughputWindow),
	}
	pc := perfmodel.Config{Model: m, Topo: topo, PIMMode: pim, SelectiveBatching: cfg.SelectiveBatching, Reuse: reuse}
	var base perfmodel.Factory
	cost := 1.0
	if cfg.PerfModel == llm.PerfModelRoofline {
		hw, err := perfmodel.LookupHardware(cfg.Hardware)
		if err != nil {
			return core.Options{}, 0, err
		}
		cost = hw.Cost()
		base = func() (perfmodel.Backend, error) { return roofline.New(pc, hw) }
	} else {
		ao := astrabackend.Options{NPU: cfg.NPU, PIM: cfg.PIM}
		base = func() (perfmodel.Backend, error) { return astrabackend.New(pc, ao) }
	}
	opts.Backend = func() (perfmodel.Backend, error) {
		b, err := base()
		if err != nil {
			return nil, err
		}
		led.backends = append(led.backends, b)
		return timedBackend{Backend: b, led: led}, nil
	}
	return opts, cost, nil
}

// track registers a replica with the ledger and reads batch sizes
// through the OnIteration hook.
func (led *ledger) track(sim *core.Simulator) {
	led.sims = append(led.sims, sim)
	sim.OnIteration = func(it core.IterationStats) {
		led.batchSum += int64(it.BatchSize)
		led.batches++
	}
}

// tracedCall is the measured call of a traced run.
type tracedCall func(ctx context.Context) (outcome, *ledger, error)

// setupTraced assembles the scenario from the internal packages with
// every layer boundary wrapped.
func (sc scenario) setupTraced(n int, seed int64) (tracedCall, error) {
	led := &ledger{}
	opts, cost, err := coreOptions(sc.config(), led)
	if err != nil {
		return nil, err
	}
	if sc.single {
		reqs, err := workload.PoissonTrace(workload.ShareGPT(), n, sc.synthRate, seed)
		if err != nil {
			return nil, err
		}
		for i := range reqs {
			reqs[i] = publicBoundary(reqs[i], i)
			led.promptTokens += int64(reqs[i].InputLen)
		}
		led.pulls = int64(len(reqs))
		sim, err := core.New(opts, reqs)
		if err != nil {
			return nil, err
		}
		led.track(sim)
		return func(ctx context.Context) (outcome, *ledger, error) {
			rep, err := sim.RunContext(ctx)
			if err != nil {
				return outcome{}, nil, err
			}
			return singleOutcomeInternal(rep, n), led, nil
		}, nil
	}

	classes, err := workload.ParseClasses(sc.classes)
	if err != nil {
		return nil, err
	}
	inner, err := cluster.NewRouter(sc.router)
	if err != nil {
		return nil, err
	}
	gate, err := cluster.NewAdmission(cluster.AdmitAll, 0)
	if err != nil {
		return nil, err
	}
	var stream workload.Stream
	var trace []workload.Request
	switch {
	case sc.population != "":
		pop, err := workload.ParsePopulation(sc.population)
		if err != nil {
			return nil, err
		}
		sess, err := workload.ParseSessionSpec(sc.sessions)
		if err != nil {
			return nil, err
		}
		if stream, err = workload.NewPopulationStream(classes, pop, sess, n, seed); err != nil {
			return nil, err
		}
	case sc.stream:
		if stream, err = workload.NewMultiClassStream(classes, n, workload.Ramp{}, seed); err != nil {
			return nil, err
		}
	default:
		if trace, err = workload.MultiClassTrace(classes, n, workload.Ramp{}, seed); err != nil {
			return nil, err
		}
		for i := range trace {
			trace[i] = publicBoundary(trace[i], i)
			led.promptTokens += int64(trace[i].InputLen)
		}
		led.pulls = int64(len(trace))
	}
	ccfg := cluster.Config{
		Replicas: sc.replicas,
		Roles:    make([]cluster.Role, sc.replicas),
		NewReplica: func(i int, role cluster.Role) (*core.Simulator, error) {
			o := opts
			o.ObsReplica = i
			sim, err := core.New(o, nil)
			if err != nil {
				return nil, err
			}
			led.track(sim)
			return sim, nil
		},
		ReplicaCost:   func(int, cluster.Role) float64 { return cost },
		Router:        timedRouter{Router: inner, led: led},
		Admission:     timedAdmission{Admission: gate, led: led},
		Classes:       classes,
		StreamMetrics: sc.stream,
	}
	return func(ctx context.Context) (outcome, *ledger, error) {
		t0 := time.Now()
		c, err := cluster.New(ccfg)
		led.build = time.Since(t0)
		if err != nil {
			return outcome{}, nil, err
		}
		var rep *cluster.Report
		if stream != nil {
			rep, err = c.RunStream(ctx, &timedStream{inner: stream, led: led})
		} else {
			rep, err = c.RunContext(ctx, trace)
		}
		if err != nil {
			return outcome{}, nil, err
		}
		return clusterOutcomeInternal(rep), led, nil
	}, nil
}

// ledgerTotals is the ledger read out after a traced run: the measured
// wrapper times plus the counters and host-time splits the layers
// publish themselves.
type ledgerTotals struct {
	steps                 time.Duration // replica Step wall time, summed
	engine, graph, astra  time.Duration // astra backend Host() split
	kv                    kvcache.Stats // summed over replicas (cumulative counters only)
	iterations            int64
	npuLookups, npuHits   int64
	pimLookups, pimHits   int64
	roofLookups, roofHits int64
}

func (led *ledger) totals() ledgerTotals {
	var t ledgerTotals
	for _, sim := range led.sims {
		rep := sim.Report()
		t.steps += rep.WallClock
		t.iterations += int64(rep.Iterations)
		kv := sim.KV().Stats()
		t.kv.Evictions += kv.Evictions
		t.kv.Reloads += kv.Reloads
		t.kv.PrefixLookups += kv.PrefixLookups
		t.kv.PrefixHits += kv.PrefixHits
		t.kv.PrefixTokensSaved += kv.PrefixTokensSaved
		t.kv.PrefixSpills += kv.PrefixSpills
		t.kv.PrefixReloads += kv.PrefixReloads
	}
	for _, b := range led.backends {
		host := b.Host()
		t.engine += host.ExecutionEngine
		t.graph += host.GraphConverter
		t.astra += host.AstraSim
		switch b := b.(type) {
		case *astrabackend.Backend:
			s := b.NPUStack().Stats()
			t.npuLookups += s.SimulateCalls
			t.npuHits += s.SimulateHits
			if pim := b.PIMStack(); pim != nil {
				s := pim.Stats()
				t.pimLookups += s.SimulateCalls
				t.pimHits += s.SimulateHits
			}
		case *roofline.Backend:
			s := b.Stats()
			t.roofLookups += s.BaseHits + s.BaseMisses + s.AttnHits + s.AttnMisses
			t.roofHits += s.BaseHits + s.AttnHits
		}
	}
	return t
}

// layers turns a traced run into the per-layer metrics. wall is the
// traced run's wall time; the layer times partition it, with
// cluster.self_s the residual (event loop, snapshot building, control
// events and the report fold).
func (led *ledger) layers(wall time.Duration) (map[string]float64, ledgerTotals) {
	t := led.totals()
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	sched := t.steps - led.pricing
	self := wall - led.build - led.pull - led.route - led.admit - t.steps
	m := map[string]float64{
		"workload.pull_s": led.pull.Seconds(),
		"workload.pulls":  float64(led.pulls),

		"cluster.build_s":     led.build.Seconds(),
		"cluster.route_s":     led.route.Seconds(),
		"cluster.route_calls": float64(led.routes),
		"cluster.admit_s":     led.admit.Seconds(),
		"cluster.admit_calls": float64(led.admits),
		"cluster.self_s":      self.Seconds(),

		"core.iterations":  float64(t.iterations),
		"sched.s":          sched.Seconds(),
		"sched.batch_mean": ratio(led.batchSum, led.batches),

		"kvcache.evictions":           float64(t.kv.Evictions),
		"kvcache.reloads":             float64(t.kv.Reloads),
		"kvcache.prefix_lookups":      float64(t.kv.PrefixLookups),
		"kvcache.prefix_hit_ratio":    ratio(t.kv.PrefixHits, t.kv.PrefixLookups),
		"kvcache.prefix_spills":       float64(t.kv.PrefixSpills),
		"kvcache.prefix_reloads":      float64(t.kv.PrefixReloads),
		"kvcache.prompt_cached_share": ratio(t.kv.PrefixTokensSaved, led.promptTokens),

		"perfmodel.calls":    float64(led.pricings),
		"perfmodel.s":        led.pricing.Seconds(),
		"engine.s":           t.engine.Seconds(),
		"graph.s":            t.graph.Seconds(),
		"astra.s":            t.astra.Seconds(),
		"engine.lookups":     float64(t.npuLookups + t.pimLookups),
		"engine.misses":      float64(t.npuLookups + t.pimLookups - t.npuHits - t.pimHits),
		"engine.hit_ratio":   ratio(t.npuHits+t.pimHits, t.npuLookups+t.pimLookups),
		"roofline.lookups":   float64(t.roofLookups),
		"roofline.hit_ratio": ratio(t.roofHits, t.roofLookups),

		"trace.wall_s": wall.Seconds(),
	}
	// The rejected count comes from the outcome; the caller fills it.
	return m, t
}
