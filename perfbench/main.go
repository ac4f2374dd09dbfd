// Command perfbench is the simulator's host-cost benchmark. It runs one
// named workload (see workloads.go) repeatedly for a fixed time, each run
// in a fresh process so every run pays the cold engine and roofline
// caches a user pays, checks every run's simulated output, and prints
// the medians of the end-to-end metrics (or, with -trace 1, of the
// per-layer ledger) as one JSON object on the last line of standard
// output:
//
//	perfbench -workload fleet-scale -seed 42 -seconds 30 -trace 0
//
// perfbench/run.sh builds the binary from source and runs it; see
// perfbench/README.md for the workloads, the metrics and how to compare
// two commits.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (paper-instance|astra-fleet|session-prefix|fleet-scale)")
		seed    = flag.Int64("seed", defaultSeed, "benchmark seed: selects the set of inputs (arrival processes and request lengths) the runs cycle through")
		seconds = flag.Float64("seconds", 30, "measure for this many seconds (runs start until it has passed)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from plain runs; 1: per-layer ledger from traced runs")
		child   = flag.Bool("child", false, "run the workload once in this process and print its sample (used by the parent process)")
		traced  = flag.Bool("traced", false, "with -child: run the traced assembly instead of the public API")
	)
	flag.Parse()
	sc, err := lookupScenario(*name)
	if err != nil {
		fatal(err)
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	if *child {
		s, err := runOnce(context.Background(), sc, sc.requests, *seed, *traced)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(s); err != nil {
			fatal(err)
		}
		return
	}

	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	rn := runner{
		sc: sc, seed: *seed, traceMode: *trace == 1,
		budget: time.Duration(*seconds * float64(time.Second)),
		spawn:  processSpawner(self),
		calib:  calibrate,
	}
	res := rn.run()
	res.print(os.Stdout)
}

// processSpawner starts one child process per run and waits for it, so
// each run starts with cold caches and a fresh heap. The returned setup
// time spans process start to the simulation call.
func processSpawner(self string) spawnFunc {
	return func(ctx context.Context, sc scenario, seed int64, traced bool) (sample, float64, error) {
		cmd := exec.CommandContext(ctx, self, "-child",
			"-workload", sc.name, "-seed", strconv.FormatInt(seed, 10),
			"-traced="+strconv.FormatBool(traced))
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return sample{}, 0, fmt.Errorf("run %s: %w", sc.name, err)
		}
		var s sample
		if err := json.Unmarshal(out.Bytes(), &s); err != nil {
			return sample{}, 0, fmt.Errorf("run %s: reading its sample: %w", sc.name, err)
		}
		return s, float64(s.CallStartUnixNs-start.UnixNano()) / 1e9, nil
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
