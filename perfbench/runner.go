package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"time"
)

// spawnFunc performs one run on the input drawn with the given seed and
// returns its sample and set-up seconds.
type spawnFunc func(ctx context.Context, sc scenario, inputSeed int64, traced bool) (sample, float64, error)

// inputsPerSeed is how many distinct inputs one benchmark seed selects.
// Runs cycle through them, so a run's median covers several draws of
// the workload's generator instead of one: the host cost of a single
// draw varies with its request lengths and arrival pattern by several
// percent, which would otherwise show up as spread between seeds.
const inputsPerSeed = 8

// inputSeed returns the generator seed of input j of a benchmark seed.
// Distinct benchmark seeds select disjoint inputs.
func inputSeed(seed int64, j int) int64 { return seed*inputsPerSeed + int64(j%inputsPerSeed) }

// runner runs one workload for a time budget and aggregates its runs.
type runner struct {
	sc        scenario
	seed      int64
	traceMode bool
	budget    time.Duration
	spawn     spawnFunc
	calib     func() time.Duration // times the reference kernel
}

// hardLimit bounds a whole invocation, runs in flight included; a run
// still going at the limit is killed and counted as failed.
const hardLimit = 170 * time.Second

// run starts runs one at a time until the budget has passed and each
// kind has its minimum count: three plain runs, or with tracing two
// plain and two traced runs. Traced runs pair with the plain run before
// them on the same input, so the two can be compared directly. The
// reference kernel runs between runs to gauge the host's speed.
func (rn runner) run() result {
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	start := time.Now()
	res := result{sc: rn.sc, seed: rn.seed, traceMode: rn.traceMode}
	prev := rn.calib()
	for i := 0; ; i++ {
		traced, input := false, i
		if rn.traceMode {
			traced, input = i%2 == 1, i/2
		}
		plainN, tracedN := res.counts()
		enough := plainN >= 3
		if rn.traceMode {
			enough = plainN >= 2 && tracedN >= 2 && !traced
		}
		if (enough && time.Since(start) >= rn.budget) || ctx.Err() != nil {
			break
		}
		input %= inputsPerSeed
		s, setup, err := rn.spawn(ctx, rn.sc, inputSeed(rn.seed, input), traced)
		r := run{traced: traced, input: input, s: s, setupS: setup}
		if err != nil {
			r.err = err.Error()
		}
		next := rn.calib()
		r.speed = calibRef / ((prev + next).Seconds() / 2)
		prev = next
		res.runs = append(res.runs, r)
	}
	res.check()
	return res
}

// run is one attempted simulation run.
type run struct {
	traced bool
	input  int // index of the input within the seed's set
	s      sample
	setupS float64
	speed  float64 // host speed factor: calibRef over the kernel time around the run
	err    string  // the run did not produce a sample
	failed []string
}

// result is one invocation's runs and verdict.
type result struct {
	sc        scenario
	seed      int64
	traceMode bool
	runs      []run
	reference map[int]string // per input: the digest every run on it must reproduce
	pinned    bool           // references are the pinned digests
}

func (r *result) counts() (plain, traced int) {
	for _, x := range r.runs {
		if x.traced {
			traced++
		} else {
			plain++
		}
	}
	return plain, traced
}

// check marks each run failed or not. A run fails when it returned an
// error, broke a conservation law or mechanism guard, or produced a
// digest other than its input's reference: the pinned digest at the
// default seed, otherwise the digest of the first run on
// that input, so every run on one input, plain or traced, must agree.
func (r *result) check() {
	want := pinned[r.sc.name]
	r.pinned = len(want) == inputsPerSeed && r.seed == defaultSeed
	r.reference = map[int]string{}
	for _, x := range r.runs {
		if _, seen := r.reference[x.input]; seen {
			continue
		}
		switch {
		case r.pinned:
			r.reference[x.input] = want[x.input]
		case x.err == "":
			r.reference[x.input] = x.s.Digest
		}
	}
	for i := range r.runs {
		x := &r.runs[i]
		if x.err != "" {
			x.failed = []string{x.err}
			continue
		}
		x.failed = append(x.failed, x.s.Problems...)
		if ref := r.reference[x.input]; x.s.Digest != ref {
			kind := "plain"
			if x.traced {
				kind = "traced"
			}
			x.failed = append(x.failed, fmt.Sprintf("%s run on input %d: digest %s != reference %s", kind, x.input, x.s.Digest, ref))
		}
	}
}

func (r *result) failedCount() int {
	n := 0
	for _, x := range r.runs {
		if len(x.failed) > 0 {
			n++
		}
	}
	return n
}

// values collects one measurement over the runs of one kind that
// produced a sample.
func (r *result) values(traced bool, get func(run) float64) []float64 {
	var v []float64
	for _, x := range r.runs {
		if x.err == "" && x.traced == traced {
			v = append(v, get(x))
		}
	}
	return v
}

// metric is one reported metric.
type metric struct {
	name, unit string
	values     []float64
}

// endToEnd lists the end-to-end metrics, measured over plain runs. Host
// times are scaled to the reference speed (see calibrate.go).
func (r *result) endToEnd() []metric {
	get := func(name, unit string, f func(run) float64) metric {
		return metric{name: name, unit: unit, values: r.values(false, f)}
	}
	return []metric{
		get("wall_s", "s", func(x run) float64 { return x.s.WallS * x.speed }),
		get("cpu_s", "s", func(x run) float64 { return x.s.CPUS * x.speed }),
		get("setup_s", "s", func(x run) float64 { return x.setupS * x.speed }),
		get("peak_rss_mb", "MB", func(x run) float64 { return x.s.PeakRSSMB }),
		get("alloc_mb", "MB", func(x run) float64 { return x.s.AllocMB }),
	}
}

// rawTimes lists the unscaled host times and the speed factor, printed
// for reference next to the scaled metrics.
func (r *result) rawTimes() []metric {
	get := func(name, unit string, f func(run) float64) metric {
		return metric{name: name, unit: unit, values: r.values(false, f)}
	}
	return []metric{
		get("measured wall_s", "s", func(x run) float64 { return x.s.WallS }),
		get("measured cpu_s", "s", func(x run) float64 { return x.s.CPUS }),
		get("measured setup_s", "s", func(x run) float64 { return x.setupS }),
		get("host speed factor", "x", func(x run) float64 { return x.speed }),
	}
}

// perLayer lists the per-layer metrics, measured over traced runs, plus
// the tracing overhead against the plain runs of the same invocation.
func (r *result) perLayer() []metric {
	out := make([]metric, 0, len(layerUnits))
	for _, lu := range layerUnits {
		m := metric{name: lu.name, unit: lu.unit}
		if lu.name == "trace.overhead_frac" {
			m.values = r.overheads()
		} else {
			m.values = r.values(true, func(x run) float64 { return x.s.Layers[lu.name] })
		}
		out = append(out, m)
	}
	return out
}

// overheads compares each traced run with the plain run on the same
// input just before it, both scaled to the reference speed.
func (r *result) overheads() []float64 {
	var v []float64
	for i := 1; i < len(r.runs); i++ {
		p, t := r.runs[i-1], r.runs[i]
		if t.traced && !p.traced && p.input == t.input && p.err == "" && t.err == "" {
			v = append(v, (t.s.WallS*t.speed)/(p.s.WallS*p.speed)-1)
		}
	}
	return v
}

// layerUnits names the per-layer metrics in BENCHMARK.json order.
var layerUnits = []struct{ name, unit string }{
	{"workload.pull_s", "s"},
	{"workload.pulls", "count"},
	{"cluster.build_s", "s"},
	{"cluster.route_s", "s"},
	{"cluster.route_calls", "count"},
	{"cluster.admit_s", "s"},
	{"cluster.admit_calls", "count"},
	{"cluster.self_s", "s"},
	{"cluster.rejected", "count"},
	{"core.iterations", "count"},
	{"sched.s", "s"},
	{"sched.batch_mean", "requests"},
	{"kvcache.evictions", "count"},
	{"kvcache.reloads", "count"},
	{"kvcache.prefix_lookups", "count"},
	{"kvcache.prefix_hit_ratio", "ratio"},
	{"kvcache.prefix_spills", "count"},
	{"kvcache.prefix_reloads", "count"},
	{"kvcache.prompt_cached_share", "ratio"},
	{"perfmodel.calls", "count"},
	{"perfmodel.s", "s"},
	{"engine.s", "s"},
	{"graph.s", "s"},
	{"astra.s", "s"},
	{"engine.lookups", "count"},
	{"engine.misses", "count"},
	{"engine.hit_ratio", "ratio"},
	{"roofline.lookups", "count"},
	{"roofline.hit_ratio", "ratio"},
	{"gc.cycles", "count"},
	{"gc.cpu_s", "s"},
	{"trace.wall_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

// ledgerTimes are the layer times that partition the traced wall time.
var ledgerTimes = []string{
	"cluster.build_s", "workload.pull_s", "cluster.route_s", "cluster.admit_s",
	"sched.s", "perfmodel.s", "cluster.self_s",
}

// median returns the middle value (the mean of the two middle values
// for an even count); NaN for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(v, n=4) (the default "exclusive"
// method), so the benchmark's spreads read the same as the tools that
// judge them.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// print writes a human-readable summary, then the machine-readable
// verdict as the last line.
func (r *result) print(w io.Writer) {
	plainN, tracedN := r.counts()
	fmt.Fprintf(w, "workload %s  seed %d  requests %d  runs %d plain + %d traced\n",
		r.sc.name, r.seed, r.sc.requests, plainN, tracedN)
	source := "agreement within this set"
	if r.pinned {
		source = "pinned at the default seed"
	}
	for j := range inputsPerSeed {
		if ref, ok := r.reference[j]; ok {
			fmt.Fprintf(w, "input %d (seed %d): digest %s (%s)\n", j, inputSeed(r.seed, j), ref, source)
		}
	}
	for i, x := range r.runs {
		kind := "plain"
		if x.traced {
			kind = "traced"
		}
		fmt.Fprintf(w, "run %2d  input %d  %-6s  wall %.4f s  cpu %.4f s  setup %.5f s  speed %.4f\n",
			i, x.input, kind, x.s.WallS, x.s.CPUS, x.setupS, x.speed)
		for _, f := range x.failed {
			fmt.Fprintf(w, "FAILED run %d: %s\n", i, f)
		}
	}
	metrics := r.endToEnd()
	if r.traceMode {
		metrics = r.perLayer()
	}
	fmt.Fprintf(w, "%-30s %14s %14s %14s %4s\n", "metric", "median", "q1", "q3", "n")
	if !r.traceMode {
		for _, m := range r.rawTimes() {
			q1, q3 := quartiles(m.values)
			fmt.Fprintf(w, "%-30s %14.6g %14.6g %14.6g %4d %s\n", m.name, median(m.values), q1, q3, len(m.values), m.unit)
		}
	}
	out := map[string]jsonMetric{}
	for _, m := range metrics {
		med := median(m.values)
		q1, q3 := quartiles(m.values)
		fmt.Fprintf(w, "%-30s %14.6g %14.6g %14.6g %4d %s\n", m.name, med, q1, q3, len(m.values), m.unit)
		if math.IsNaN(med) {
			med = 0 // no run produced a sample; the verdict is already incorrect
		}
		out[m.name] = jsonMetric{Value: med, Unit: m.unit}
	}
	if r.traceMode {
		r.printShares(w, out)
	}
	failed := r.failedCount()
	b, err := json.Marshal(verdict{
		Correct:   failed == 0 && len(r.runs) > 0,
		Attempted: len(r.runs),
		Failed:    failed,
		Metrics:   out,
	})
	if err != nil {
		panic(err) // plain data; Marshal cannot fail
	}
	fmt.Fprintf(w, "%s\n", b)
}

// printShares prints each ledger layer's share of the traced wall time
// and names the dominant one.
func (r *result) printShares(w io.Writer, m map[string]jsonMetric) {
	wall := m["trace.wall_s"].Value
	if wall <= 0 {
		return
	}
	var parts []string
	top, topShare := "", 0.0
	for _, name := range ledgerTimes {
		share := m[name].Value / wall
		parts = append(parts, fmt.Sprintf("%s %.1f%%", name, 100*share))
		if share > topShare {
			top, topShare = name, share
		}
	}
	fmt.Fprintf(w, "ledger shares of traced wall: %s\n", strings.Join(parts, ", "))
	if eng := m["engine.s"].Value + m["graph.s"].Value + m["astra.s"].Value; eng > 0 {
		fmt.Fprintf(w, "astra split of perfmodel.s: engine %.1f%%, graph %.1f%%, astra %.1f%%\n",
			100*m["engine.s"].Value/wall, 100*m["graph.s"].Value/wall, 100*m["astra.s"].Value/wall)
	}
	fmt.Fprintf(w, "dominant layer: %s (%.1f%%); prompt tokens served from cache: %.1f%%\n",
		top, 100*topShare, 100*m["kvcache.prompt_cached_share"].Value)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type verdict struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}
