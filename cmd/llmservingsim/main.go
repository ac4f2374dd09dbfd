// Command llmservingsim runs a serving simulation from the command line,
// exposing the artifact's simulation parameters (model_name, npu_num,
// max_batch, batch_delay, scheduling, parallel, npu_group, npu_mem,
// kv_manage, pim_type, sub_batch, dataset, network, output, gen,
// fast_run).
//
// Example:
//
//	llmservingsim -model gpt3-7b -npu-num 4 -parallel tensor \
//	    -dataset trace.tsv -output run1
//
// writes run1-throughput.tsv and run1-simulation-time.tsv and prints a
// summary to standard output. The enum-valued flags (-parallel,
// -scheduling, -kv-manage, -pim-type) are parsed into the package's
// typed policies, so invalid values fail at flag parsing. Interrupting
// the run (Ctrl-C) cancels the simulation at the next iteration
// boundary; -progress N prints a progress line every N iterations.
//
// Cluster mode (-replicas N with N > 1) fans the arrival stream out
// over N identical replicas through an admission gate (-admission,
// -admission-limit) and a routing policy (-router), printing per-class
// latency/SLO tables. Mixed traffic comes from -classes (optionally
// ramped with -ramp) or from a -dataset TSV with a class column:
//
//	llmservingsim -model gpt3-7b -npu-num 4 -replicas 8 \
//	    -router least-loaded -admission queue-cap -admission-limit 32 \
//	    -classes "chat:sharegpt:3:1000:80,api:alpaca:9:500:50" \
//	    -synth-n 512 -output cap
//
// Latency estimation is pluggable (-perf-model astra|roofline;
// -hardware names an accelerator preset, see -list-hardware), and
// -fleet describes a heterogeneous cluster of replica groups, e.g.
//
//	llmservingsim -model gpt3-7b -npu-num 4 \
//	    -fleet "2xgpt3-7b@rtx3090:roofline,2xgpt3-7b@a100:roofline" \
//	    -router least-loaded -classes "chat:sharegpt:6:1000:80" -synth-n 512
//
// Fleets can be dynamic: -autoscaler resizes the fleet every
// -scale-tick of simulated time between -min-replicas and
// -max-replicas (with -provision-delay of cold start per scale-up;
// the queue-depth policy reads -scale-target, slo-target reads
// -slo-scale-target, scheduled follows -scale-schedule "0:2,60:8"),
// and -fleet-events injects failures, planned scales, and graceful
// drains ("fail@30:2,scale@60:8,drain@90:0"). Either flag enables the
// cluster layer; -output then also writes the fleet-size timeline to
// *-fleet.tsv.
//
// A fleet whose groups carry #prefill / #decode role suffixes runs
// disaggregated: prefill replicas compute first tokens, then hand each
// request's KV cache to a decode replica over the interconnect
// (-decode-router places the decode stage; -autoscaler scales the two
// pools independently between -prefill-min/-prefill-max and
// -decode-min/-decode-max):
//
//	llmservingsim -model gpt2 -npu-num 2 \
//	    -fleet "2xgpt2#prefill,2xgpt2#decode" -decode-router least-loaded \
//	    -classes "chat:sharegpt:6:1000:80" -synth-n 512
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	llmservingsim "repro"
	"repro/internal/config"
)

func main() {
	cfg := llmservingsim.DefaultConfig()
	var (
		listModels   = flag.Bool("list-models", false, "print known models and exit")
		listHardware = flag.Bool("list-hardware", false, "print known hardware presets and exit")
		listPolicies = flag.Bool("list-policies", false, "print every policy registry (routers, admission, autoscalers, scheduling, perf models, prefix cache modes) and exit")
		npuMem       = flag.Int("npu-mem", 0, "NPU local memory in GB (0 = Table I default)")
		pimPool      = flag.Int("pim-pool", 0, "PIM pool size (pool mode; 0 = npu-num)")
		subBatch     = flag.Bool("sub-batch", false, "enable NeuPIMs sub-batch interleaving")
		noReuse      = flag.Bool("no-reuse", false, "disable all result-reuse optimisations")
		networkCfg   = flag.String("network", "", "JSON link config file (bandwidth/latency)")
		npuCfgPath   = flag.String("npu-config", "", "JSON NPU config file")
		dataset      = flag.String("dataset", "", "TSV request trace (input/output tokens + arrival ms)")
		synth        = flag.String("synth", "", "synthesise a trace instead: sharegpt|alpaca")
		synthN       = flag.Int("synth-n", 128, "synthetic trace request count")
		synthRate    = flag.Float64("synth-rate", 4, "synthetic Poisson arrival rate (req/s)")
		seed         = flag.Int64("seed", 1, "synthetic trace random seed")
		progress     = flag.Int("progress", 0, "print a progress line every N iterations (0 = off)")
		output       = flag.String("output", "", "output file prefix for TSV results")

		replicas     = flag.Int("replicas", 1, "cluster mode: number of serving replicas (>1 enables the cluster layer)")
		router       llmservingsim.RouterPolicy
		decodeRouter llmservingsim.RouterPolicy
		admission    llmservingsim.AdmissionPolicy
		autoscaler   llmservingsim.AutoscalePolicy
		admitLimit   = flag.Int64("admission-limit", 0, "admission bound: queued requests/replica (queue-cap) or cluster tokens (token-budget)")
		classSpec    = flag.String("classes", "", "traffic classes name:dist:rate[:ttft_ms[:tpot_ms[:prefix_toks]]],... (synthesises a mixed trace)")
		requests     = flag.Int("requests", 0, "request count for -classes/-synth traffic (overrides -synth-n; spelled for large -stream runs)")
		stream       = flag.Bool("stream", false, "pull -classes arrivals from the generator and stream per-request metrics: memory stays flat in the request count (enables the cluster layer)")
		rampSpec     = flag.String("ramp", "", "arrival-rate ramp from:to[:over_s] for -classes traffic")
		popSpec      = flag.String("population", "", "client population clients:rate_dist:skew[:diurnal_amp:diurnal_period_s[:burst_factor:burst_frac:burst_mean_s]] generating session traffic over -classes (enables the cluster layer)")
		sessSpecFlag = flag.String("sessions", "", "session structure mean_turns:think_mean_s:think_sigma[:max_context] for -population traffic (default 4:10:0.6:4096)")
		replayPath   = flag.String("replay", "", "replay a recorded trace file as the arrival source (versioned format; -classes still supplies SLO targets; enables the cluster layer)")
		recordPath   = flag.String("record-trace", "", "record the arrival stream to a versioned replay trace file")
		fleetSpec    = flag.String("fleet", "", "heterogeneous fleet COUNTxMODEL[@HARDWARE][:PERFMODEL][#ROLE],... (enables the cluster layer; #prefill/#decode pools disaggregate; see -list-hardware)")

		scaleTick    = flag.Duration("scale-tick", 10*time.Second, "autoscaler evaluation interval (simulated time)")
		minReplicas  = flag.Int("min-replicas", 0, "autoscaling floor (0 = 1)")
		maxReplicas  = flag.Int("max-replicas", 0, "autoscaling ceiling (0 = initial replicas)")
		scaleTarget  = flag.Int("scale-target", 8, "queue-depth autoscaler: target queued requests per replica")
		sloTarget    = flag.Float64("slo-scale-target", 0.95, "slo-target autoscaler: scale up below this interval attainment")
		sloHigh      = flag.Float64("slo-scale-high", 1, "slo-target autoscaler: scale down at or above this interval attainment")
		scaleSched   = flag.String("scale-schedule", "", "scheduled autoscaler: step plan T_S:REPLICAS,... (e.g. 0:2,60:8,120:2)")
		provision    = flag.Duration("provision-delay", 0, "cold-start delay of scaled-up replicas (simulated time)")
		prefillMin   = flag.Int("prefill-min", 0, "disaggregated autoscaling: prefill pool floor (0 = 1)")
		prefillMax   = flag.Int("prefill-max", 0, "disaggregated autoscaling: prefill pool ceiling (0 = initial pool size)")
		decodeMin    = flag.Int("decode-min", 0, "disaggregated autoscaling: decode pool floor (0 = 1)")
		decodeMax    = flag.Int("decode-max", 0, "disaggregated autoscaling: decode pool ceiling (0 = initial pool size)")
		fleetEvtSpec = flag.String("fleet-events", "", "fleet events fail@T:R[:reject]|scale@T:N|drain@T:R,... (enables the cluster layer)")

		traceOut     = flag.String("trace-out", "", "write a Chrome-trace JSON of the run (open in chrome://tracing or Perfetto)")
		decisionsOut = flag.String("decisions-out", "", "write routing/admission/autoscaling decision records as TSV")
		traceDetail  llmservingsim.TraceDetail

		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address while the simulation runs (e.g. localhost:6060)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Var(&traceDetail, "trace-detail", "telemetry capture level: decisions|spans|full")
	flag.Var(&autoscaler, "autoscaler", "fleet autoscaling policy: none|queue-depth|slo-target|scheduled")
	flag.Var(&cfg.PerfModel, "perf-model", "performance model: astra|roofline")
	flag.StringVar(&cfg.Hardware, "hardware", "", "accelerator preset the backend models (see -list-hardware)")
	flag.Var(&router, "router", "cluster routing policy: round-robin|least-loaded|affinity|prefix-affinity")
	flag.Var(&decodeRouter, "decode-router", "disaggregated clusters: decode-stage routing policy (same choices as -router)")
	flag.Var(&admission, "admission", "cluster admission policy: all|queue-cap|token-budget")
	flag.StringVar(&cfg.Model, "model", cfg.Model, "model name (see -list-models)")
	flag.IntVar(&cfg.NPUs, "npu-num", cfg.NPUs, "number of NPUs")
	flag.IntVar(&cfg.MaxBatch, "max-batch", 0, "maximum batch size (0 = unlimited)")
	flag.DurationVar(&cfg.BatchDelay, "batch-delay", 0, "delay to accumulate arrivals before batching")
	flag.Var(&cfg.Scheduling, "scheduling", "scheduling policy: orca|static|chunked")
	flag.IntVar(&cfg.PrefillChunk, "prefill-chunk", 0, "chunked scheduling: prompt tokens per prefill chunk (0 = 256)")
	flag.Var(&cfg.PrefixCache, "prefix-cache", "shared-prefix KV caching: off|gpu|tiered")
	flag.Float64Var(&cfg.KVHostMemGB, "kv-host-mem", 0, "tiered prefix cache: host spill tier size in GB (0 = unbounded)")
	flag.Var(&cfg.Parallelism, "parallel", "parallelism: tensor|pipeline|hybrid")
	flag.IntVar(&cfg.NPUGroups, "npu-group", cfg.NPUGroups, "NPU group count for hybrid parallelism")
	flag.Var(&cfg.KVManage, "kv-manage", "KV cache management: vllm|maxlen")
	flag.Var(&cfg.PIMType, "pim-type", "PIM usage: none|local|pool")
	flag.BoolVar(&cfg.SelectiveBatching, "selective", false, "enable selective batching across TP workers")
	flag.BoolVar(&cfg.UseGPUEngine, "gpu", false, "use the GPU reference engine instead of the NPU")
	flag.BoolVar(&cfg.SkipInitiation, "gen", false, "skip the initiation phase (generation only)")
	flag.Parse()

	if *listModels {
		for _, m := range llmservingsim.Models() {
			fmt.Println(m)
		}
		return
	}
	if *listHardware {
		for _, h := range llmservingsim.Hardwares() {
			fmt.Println(h)
		}
		return
	}
	if *listPolicies {
		for _, reg := range []struct {
			name  string
			items []string
		}{
			{"router", llmservingsim.Routers()},
			{"admission", llmservingsim.Admissions()},
			{"autoscaler", llmservingsim.Autoscalers()},
			{"scheduling", llmservingsim.SchedPolicies()},
			{"perf-model", llmservingsim.PerfModels()},
			{"prefix-cache", llmservingsim.PrefixCacheModes()},
		} {
			for _, item := range reg.items {
				fmt.Printf("%s\t%s\n", reg.name, item)
			}
		}
		return
	}

	var fleet []llmservingsim.ReplicaSpec
	if *fleetSpec != "" {
		var err error
		if fleet, err = llmservingsim.ParseFleet(*fleetSpec); err != nil {
			fatal(err)
		}
	}
	var fleetEvents []llmservingsim.FleetEvent
	if *fleetEvtSpec != "" {
		var err error
		if fleetEvents, err = llmservingsim.ParseFleetEvents(*fleetEvtSpec); err != nil {
			fatal(err)
		}
	}
	var scaleSchedule []llmservingsim.ScalePoint
	if *scaleSched != "" {
		var err error
		if scaleSchedule, err = llmservingsim.ParseScaleSchedule(*scaleSched); err != nil {
			fatal(err)
		}
	}

	cfg.PIMPoolSize = *pimPool
	if *subBatch {
		cfg.SubBatches = 2
	}
	if *noReuse {
		cfg.ModelRedundancyReuse = false
		cfg.ComputationReuse = false
	}
	if *npuMem > 0 {
		cfg.NPU.MemoryBytes = int64(*npuMem) * config.GB
	}
	if *networkCfg != "" {
		if err := config.LoadJSON(*networkCfg, &cfg.Link); err != nil {
			fatal(err)
		}
	}
	if *npuCfgPath != "" {
		if err := config.LoadJSON(*npuCfgPath, &cfg.NPU); err != nil {
			fatal(err)
		}
	}
	if *progress > 0 && !*stream {
		// Streaming runs report request-level progress through the
		// arrival stream instead (see progressStream below).
		every := *progress
		cfg.OnIteration = func(it llmservingsim.Iteration) {
			if (it.Index+1)%every == 0 {
				fmt.Fprintf(os.Stderr, "iteration %d  batch %d  sim clock %.2fs\n",
					it.Index+1, it.BatchSize, it.ClockSec)
			}
		}
	}

	var classes []llmservingsim.TrafficClass
	if *classSpec != "" {
		var err error
		if classes, err = llmservingsim.ParseTrafficClasses(*classSpec); err != nil {
			fatal(err)
		}
	}
	if *requests > 0 {
		*synthN = *requests
	}
	var ramp llmservingsim.Ramp
	if *rampSpec != "" {
		var err error
		if ramp, err = llmservingsim.ParseRamp(*rampSpec); err != nil {
			fatal(err)
		}
	}

	var pop llmservingsim.PopulationSpec
	sessions := llmservingsim.DefaultSessionSpec()
	if *sessSpecFlag != "" && *popSpec == "" {
		fatal(fmt.Errorf("-sessions structures -population traffic; give -population too"))
	}
	if *popSpec != "" {
		if *classSpec == "" {
			fatal(fmt.Errorf("-population apportions clients over -classes traffic; give -classes too"))
		}
		var err error
		if pop, err = llmservingsim.ParsePopulation(*popSpec); err != nil {
			fatal(err)
		}
		if *sessSpecFlag != "" {
			if sessions, err = llmservingsim.ParseSessionSpec(*sessSpecFlag); err != nil {
				fatal(err)
			}
		}
	}

	var trace []llmservingsim.Request
	var arrivals llmservingsim.RequestStream
	var err error
	switch {
	case *replayPath != "" && *stream:
		var rs *llmservingsim.ReplayStream
		if rs, err = llmservingsim.OpenReplayTrace(*replayPath); err == nil {
			defer rs.Close()
			arrivals = rs
			if *progress > 0 {
				arrivals = &progressStream{inner: rs, every: *progress}
			}
		}
	case *replayPath != "":
		trace, err = llmservingsim.LoadReplayTrace(*replayPath)
	case *stream && *popSpec != "":
		var ps *llmservingsim.PopulationStream
		if ps, err = llmservingsim.NewPopulationStream(classes, pop, sessions, *synthN, *seed); err == nil {
			arrivals = ps
			if *progress > 0 {
				arrivals = &progressStream{inner: ps, every: *progress, target: ps.Target()}
			}
		}
	case *stream:
		if *classSpec == "" {
			err = fmt.Errorf("-stream requires -classes traffic (the generator is the stream)")
			break
		}
		var ms *llmservingsim.MultiClassStream
		if ms, err = llmservingsim.NewMultiClassStream(classes, *synthN, ramp, *seed); err == nil {
			arrivals = ms
			if *progress > 0 {
				arrivals = &progressStream{inner: ms, every: *progress, target: ms.Target()}
			}
		}
	case *popSpec != "":
		trace, err = llmservingsim.PopulationTrace(classes, pop, sessions, *synthN, *seed)
	case *dataset != "":
		trace, err = llmservingsim.LoadTrace(*dataset)
	case *classSpec != "":
		trace, err = llmservingsim.MultiClassTrace(classes, *synthN, ramp, *seed)
	case *synth == "sharegpt":
		trace, err = llmservingsim.ShareGPTTrace(*synthN, *synthRate, *seed)
	case *synth == "alpaca":
		trace, err = llmservingsim.AlpacaTrace(*synthN, *synthRate, *seed)
	default:
		err = fmt.Errorf("provide -dataset FILE, -classes SPEC, -population SPEC, -replay FILE, or -synth sharegpt|alpaca")
	}
	if err != nil {
		fatal(err)
	}

	var recordClose func() error
	if *recordPath != "" {
		gen := generatorFingerprint()
		if arrivals != nil {
			// Streaming source: tee every request as the engine pulls it.
			rec, closeFn, err := llmservingsim.RecordReplayFile(*recordPath, arrivals, gen)
			if err != nil {
				fatal(err)
			}
			arrivals, recordClose = rec, closeFn
		} else {
			if err := llmservingsim.SaveReplayTrace(*recordPath, trace, gen); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "recorded %d requests to %s\n", len(trace), *recordPath)
		}
	}
	defer func() {
		if recordClose != nil {
			if err := recordClose(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "recorded trace to %s\n", *recordPath)
		}
	}()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "llmservingsim: pprof listener:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// Runs on normal return from main (both the single-instance and
		// cluster paths); error exits skip the profile.
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	var tel *llmservingsim.Telemetry
	if *traceOut != "" || *decisionsOut != "" {
		tel = llmservingsim.NewTelemetry(llmservingsim.TelemetryConfig{Detail: traceDetail})
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		// After the first interrupt starts the graceful stop, restore
		// default SIGINT handling so a second Ctrl-C force-quits.
		<-ctx.Done()
		stop()
	}()

	if *replicas > 1 || len(fleet) > 0 || len(fleetEvents) > 0 || autoscaler != llmservingsim.ScaleNone ||
		*stream || *popSpec != "" || *replayPath != "" {
		sc := llmservingsim.ClusterScenario{
			Name:               "cli",
			Config:             cfg,
			Replicas:           *replicas,
			Router:             router,
			DecodeRouter:       decodeRouter,
			Admission:          admission,
			AdmissionLimit:     *admitLimit,
			Classes:            classes,
			Trace:              trace,
			Autoscaler:         autoscaler,
			ScaleTick:          *scaleTick,
			MinReplicas:        *minReplicas,
			MaxReplicas:        *maxReplicas,
			ScaleQueueTarget:   *scaleTarget,
			ScaleSLOTarget:     *sloTarget,
			ScaleSLOHigh:       *sloHigh,
			ScaleSchedule:      scaleSchedule,
			ProvisionDelay:     *provision,
			PrefillMinReplicas: *prefillMin,
			PrefillMaxReplicas: *prefillMax,
			DecodeMinReplicas:  *decodeMin,
			DecodeMaxReplicas:  *decodeMax,
			FleetEvents:        fleetEvents,
			Telemetry:          tel,
			TraceStream:        arrivals,
			StreamMetrics:      *stream,
		}
		if *stream && *output != "" {
			// Stream the per-request table as requests complete (rows
			// in completion order); the post-hoc dump has no retained
			// records to write from.
			f, err := os.Create(*output + "-requests.tsv")
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			sc.RequestsOut = f
		}
		if len(fleet) > 0 {
			sc.Fleet = fleet
			replicasSet := false
			flag.Visit(func(f *flag.Flag) { replicasSet = replicasSet || f.Name == "replicas" })
			if !replicasSet {
				// -replicas was not given: derive the count from the
				// fleet. An explicit -replicas value must match the
				// fleet total (Validate enforces it).
				sc.Replicas = 0
			}
		}
		runCluster(ctx, sc, *output)
		writeTelemetry(tel, *traceOut, *decisionsOut)
		return
	}

	cfg.Telemetry = tel
	sim, err := llmservingsim.NewFromConfig(cfg, trace)
	if err != nil {
		fatal(err)
	}

	start := time.Now()
	rep, err := sim.RunContext(ctx)
	interrupted := false
	if errors.Is(err, context.Canceled) {
		// Graceful interrupt: report the iterations completed so far.
		interrupted = true
		rep = sim.Report()
	} else if err != nil {
		fatal(err)
	}

	if interrupted {
		fmt.Printf("interrupted      after %d iterations (partial results)\n", rep.Iterations)
	}
	fmt.Printf("model            %s\n", rep.Model)
	fmt.Printf("topology         %s\n", rep.Topology)
	fmt.Printf("perf model       %s\n", rep.Backend)
	fmt.Printf("requests         %d\n", rep.Latency.Count)
	fmt.Printf("iterations       %d\n", rep.Iterations)
	fmt.Printf("simulated time   %.2f s\n", rep.SimEndSec)
	fmt.Printf("prompt tput      %.1f tok/s\n", rep.PromptTPS)
	fmt.Printf("gen tput         %.1f tok/s\n", rep.GenTPS)
	fmt.Printf("mean latency     %.3f s (p50 %.3f, p95 %.3f, p99 %.3f, ttft %.3f, tpot %.4f)\n",
		rep.Latency.MeanSec, rep.Latency.P50Sec, rep.Latency.P95Sec, rep.Latency.P99Sec,
		rep.Latency.TTFTSec, rep.Latency.TPOTSec)
	fmt.Printf("kv evict/reload  %d / %d\n", rep.KV.Evictions, rep.KV.Reloads)
	fmt.Printf("cache hit rate   %.1f %%\n", 100*rep.EngineCacheHitRate)
	fmt.Printf("simulation time  %v (sched %v, engine %v, convert %v, astra %v)\n",
		time.Since(start).Round(time.Millisecond),
		rep.SimTime.Scheduler.Round(time.Millisecond),
		rep.SimTime.ExecutionEngine.Round(time.Millisecond),
		rep.SimTime.GraphConverter.Round(time.Millisecond),
		rep.SimTime.AstraSim.Round(time.Millisecond))

	if *output != "" {
		if err := writeTSVs(*output, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s-throughput.tsv, %s-simulation-time.tsv\n", *output, *output)
	}
	writeTelemetry(tel, *traceOut, *decisionsOut)
}

// writeTelemetry exports the run's captured telemetry to the requested
// files; a nil recorder (no -trace-out/-decisions-out) is a no-op.
func writeTelemetry(tel *llmservingsim.Telemetry, traceOut, decisionsOut string) {
	if tel == nil {
		return
	}
	write := func(path, what string, fn func(io.Writer) error) {
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := fn(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%s)\n", path, what)
	}
	if traceOut != "" {
		write(traceOut, fmt.Sprintf("chrome trace: %d events, %d decisions",
			tel.Events(), tel.Decisions()), tel.WriteChromeTrace)
	}
	if decisionsOut != "" {
		write(decisionsOut, fmt.Sprintf("%d decisions", tel.Decisions()), tel.WriteDecisionsTSV)
	}
}

// runCluster executes the multi-replica path and prints the cluster
// summary with a per-class SLO table.
func runCluster(ctx context.Context, sc llmservingsim.ClusterScenario, output string) {
	start := time.Now()
	rep, err := sc.RunContext(ctx)
	if errors.Is(err, context.Canceled) {
		fatal(fmt.Errorf("interrupted before the cluster run completed"))
	} else if err != nil {
		fatal(err)
	}

	fmt.Printf("model            %s\n", rep.Model)
	fmt.Printf("topology         %s\n", rep.Topology)
	fmt.Printf("router           %s\n", rep.Router)
	if rep.DecodeRouter != "" {
		fmt.Printf("decode router    %s\n", rep.DecodeRouter)
	}
	fmt.Printf("admission        %s\n", rep.Admission)
	if rep.Scaler != "" {
		fmt.Printf("autoscaler       %s (peak %d replicas)\n", rep.Scaler, rep.PeakReplicas())
	}
	if rep.Requeued > 0 {
		fmt.Printf("requeued         %d (moved off failed/draining replicas)\n", rep.Requeued)
	}
	fmt.Printf("requests         %d (admitted %d, rejected %d)\n", rep.Requests, rep.Admitted, rep.Rejected)
	fmt.Printf("iterations       %d across %d replicas\n", rep.TotalIterations(), rep.Replicas)
	fmt.Printf("replica seconds  %.1f (cost proxy %.1f)\n", rep.ReplicaSeconds, rep.CostProxy)
	for _, p := range rep.Pools {
		fmt.Printf("%-7s pool     %d slots, %d placements, %.1f replica s (cost proxy %.1f), goodput %.1f tok/s\n",
			p.Role, p.Slots, p.Requests, p.ReplicaSeconds, p.CostProxy, p.GoodputTPS)
	}
	if rep.HandoffCount > 0 {
		fmt.Printf("kv handoffs      %d transfers, %d B over the interconnect (%.3f s link time)\n",
			rep.HandoffCount, rep.HandoffBytes, rep.HandoffLinkSeconds)
	}
	fmt.Printf("simulated time   %.2f s\n", rep.SimEndSec)
	fmt.Printf("prompt tput      %.1f tok/s\n", rep.PromptTPS)
	fmt.Printf("gen tput         %.1f tok/s (goodput %.1f tok/s)\n", rep.ThroughputTPS, rep.GoodputTPS)
	if rep.PrefixTokensSaved > 0 || rep.PrefixHitRate > 0 {
		fmt.Printf("prefix cache     %.1f %% hit rate, %d tokens saved, %d B spilled / %d B reloaded (%.3f s link time)\n",
			100*rep.PrefixHitRate, rep.PrefixTokensSaved,
			rep.PrefixSpillBytes, rep.PrefixReloadBytes, rep.PrefixLinkSeconds)
	}
	fmt.Printf("mean latency     %.3f s (p50 %.3f, p95 %.3f, p99 %.3f, ttft %.3f, tpot %.4f)\n",
		rep.Latency.MeanSec, rep.Latency.P50Sec, rep.Latency.P95Sec, rep.Latency.P99Sec,
		rep.Latency.TTFTSec, rep.Latency.TPOTSec)
	if ss := rep.Sessions; ss != nil {
		fmt.Printf("sessions         %d (%d completed, %d attained), %d turns (%d rejected)\n",
			ss.Sessions, ss.Completed, ss.Attained, ss.Turns, ss.TurnsRejected)
		fmt.Printf("session ttft     turn 1 p50 %.3fs p99 %.3fs, later turns p50 %.3fs p99 %.3fs\n",
			ss.FirstTurnTTFT.P50Sec, ss.FirstTurnTTFT.P99Sec,
			ss.LaterTurnTTFT.P50Sec, ss.LaterTurnTTFT.P99Sec)
		fmt.Printf("session goodput  %.1f tok/s (%d tokens from completed turns)\n",
			ss.GoodputTPS, ss.OutputTokens)
	}
	if rg := rep.Regret; rg != nil {
		fmt.Printf("routing regret   %d/%d decisions regretful (%.1f %%), mean %.4f s, max %.4f s\n",
			rg.Regretful, rg.Decisions, 100*rg.RegretfulFrac(), rg.MeanRegretSec, rg.MaxRegretSec)
	}
	fmt.Printf("wall clock       %v\n", time.Since(start).Round(time.Millisecond))
	if len(rep.Classes) > 0 {
		fmt.Printf("\n%-12s %9s %9s %9s %12s %12s %12s %12s\n",
			"class", "requests", "rejected", "attained", "p50 ttft", "p99 ttft", "mean tpot", "goodput t/s")
		for _, cs := range rep.Classes {
			name := cs.Class
			if name == "" {
				name = "-"
			}
			fmt.Printf("%-12s %9d %9d %9d %11.3fs %11.3fs %11.4fs %12.1f\n",
				name, cs.Requests, cs.Rejected, cs.SLOAttained,
				cs.TTFT.P50Sec, cs.TTFT.P99Sec, cs.TPOT.MeanSec, cs.GoodputTPS)
		}
	}

	if output != "" {
		files := []struct {
			suffix string
			write  func(io.Writer) error
		}{
			{"-classes.tsv", rep.WriteClassTSV},
			{"-requests.tsv", rep.WriteRequestsTSV},
			{"-replicas.tsv", rep.WriteReplicaTSV},
			{"-fleet.tsv", rep.WriteFleetTSV},
		}
		if sc.StreamMetrics {
			// No retained records to dump post-hoc; when RequestsOut was
			// wired the table already streamed row by row during the run
			// (and the post-hoc create would truncate it).
			files = append(files[:1], files[2:]...)
		}
		names := make([]string, len(files))
		for i, f := range files {
			names[i] = output + f.suffix
			out, err := os.Create(output + f.suffix)
			if err != nil {
				fatal(err)
			}
			if err := f.write(out); err != nil {
				out.Close()
				fatal(err)
			}
			if err := out.Close(); err != nil {
				fatal(err)
			}
		}
		if sc.RequestsOut != nil {
			names = append(names, output+"-requests.tsv (streamed)")
		}
		fmt.Printf("wrote %s\n", strings.Join(names, ", "))
	}
}

// generatorFingerprint renders the workload-shaping flags the user set
// into the replay-trace header, so a recorded trace names the exact
// generator configuration that produced it. flag.Visit iterates in
// lexical order, so the fingerprint is deterministic for a given
// command line.
func generatorFingerprint() string {
	parts := []string{"llmservingsim", "v" + llmservingsim.Version}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "classes", "dataset", "population", "ramp", "replay", "requests",
			"seed", "sessions", "stream", "synth", "synth-n", "synth-rate":
			parts = append(parts, "-"+f.Name+"="+f.Value.String())
		}
	})
	return strings.Join(parts, " ")
}

// progressStream decorates an arrival stream with request-count
// progress reporting against the stream's declared target — the
// streaming analogue of the per-iteration -progress hook (which needs
// a materialized report to be useful at million-request scale).
type progressStream struct {
	inner  llmservingsim.RequestStream
	every  int
	target int
	n      int
}

func (p *progressStream) Next() (llmservingsim.Request, bool) {
	r, ok := p.inner.Next()
	if !ok {
		return r, ok
	}
	p.n++
	if p.n%p.every == 0 {
		if p.target > 0 {
			fmt.Fprintf(os.Stderr, "request %d/%d  sim clock %.2fs\n", p.n, p.target, r.Arrival.Seconds())
		} else {
			fmt.Fprintf(os.Stderr, "request %d  sim clock %.2fs\n", p.n, r.Arrival.Seconds())
		}
	}
	return r, ok
}

// Err and Target forward the engine's optional stream probes.
func (p *progressStream) Err() error {
	if e, ok := p.inner.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

func (p *progressStream) Target() int { return p.target }

func writeTSVs(prefix string, rep *llmservingsim.Report) error {
	tf, err := os.Create(prefix + "-throughput.tsv")
	if err != nil {
		return err
	}
	defer tf.Close()
	if err := rep.WriteThroughputTSV(tf); err != nil {
		return err
	}
	sf, err := os.Create(prefix + "-simulation-time.tsv")
	if err != nil {
		return err
	}
	defer sf.Close()
	return rep.WriteSimulationTimeTSV(sf)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "llmservingsim:", err)
	os.Exit(1)
}
