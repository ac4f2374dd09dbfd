package main

import (
	"context"
	"runtime/metrics"
	"syscall"
	"time"
)

// sample is one simulation run's measurements, as a child process
// reports them to the parent process.
type sample struct {
	// CallStartUnixNs is the wall-clock instant the simulation call
	// began; the parent subtracts the instant it started the process to
	// get set-up time.
	CallStartUnixNs int64   `json:"call_start_unix_ns"`
	WallS           float64 `json:"wall_s"`
	CPUS            float64 `json:"cpu_s"`
	PeakRSSMB       float64 `json:"peak_rss_mb"`
	AllocMB         float64 `json:"alloc_mb"`
	GCCycles        float64 `json:"gc_cycles"`
	GCCPUS          float64 `json:"gc_cpu_s"`

	Digest   string   `json:"digest"`
	Problems []string `json:"problems,omitempty"`

	// Layers holds the per-layer ledger of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// runtimeCounters reads the process counters one run is charged for.
type runtimeCounters struct {
	cpu       time.Duration
	allocB    uint64
	gcCycles  uint64
	gcCPUSecs float64
}

var counterSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readCounters() runtimeCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(counterSamples)
	return runtimeCounters{
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocB:    counterSamples[0].Value.Uint64(),
		gcCycles:  counterSamples[1].Value.Uint64(),
		gcCPUSecs: counterSamples[2].Value.Float64(),
	}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measure times call, charges the process counters to s and returns
// the call's wall time.
func measure(s *sample, call func() error) (time.Duration, error) {
	before := readCounters()
	start := time.Now()
	s.CallStartUnixNs = start.UnixNano()
	err := call()
	wall := time.Since(start)
	after := readCounters()
	s.WallS = wall.Seconds()
	s.CPUS = (after.cpu - before.cpu).Seconds()
	s.AllocMB = float64(after.allocB-before.allocB) / (1 << 20)
	s.GCCycles = float64(after.gcCycles - before.gcCycles)
	s.GCCPUS = after.gcCPUSecs - before.gcCPUSecs
	s.PeakRSSMB = peakRSSMB()
	return wall, err
}

// runOnce performs one measured run of the scenario in this process:
// set-up, the simulation call, and the run's own checks (conservation
// and mechanism guards). Comparing digests across runs is the
// parent's job.
func runOnce(ctx context.Context, sc scenario, n int, seed int64, traced bool) (sample, error) {
	var s sample
	var out outcome
	if !traced {
		call, err := sc.setupPlain(n, seed)
		if err != nil {
			return s, err
		}
		if _, err := measure(&s, func() (err error) { out, err = call(ctx); return err }); err != nil {
			return s, err
		}
		s.Problems = append(out.conservation(n), sc.guards(out, nil)...)
		s.Digest = out.digest()
		return s, nil
	}

	call, err := sc.setupTraced(n, seed)
	if err != nil {
		return s, err
	}
	var led *ledger
	wall, err := measure(&s, func() (err error) { out, led, err = call(ctx); return err })
	if err != nil {
		return s, err
	}
	layers, totals := led.layers(wall)
	layers["cluster.rejected"] = float64(out.Rejected)
	layers["gc.cycles"] = s.GCCycles
	layers["gc.cpu_s"] = s.GCCPUS
	s.Layers = layers
	s.Problems = append(out.conservation(n), sc.guards(out, &totals)...)
	if self := layers["cluster.self_s"]; self < 0 {
		s.Problems = append(s.Problems, "ledger: layer times exceed the traced wall time")
	}
	s.Digest = out.digest()
	return s, nil
}
