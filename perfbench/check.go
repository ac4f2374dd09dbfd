package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	llm "repro"
	"repro/internal/cluster"
	"repro/internal/core"
)

// outcome holds the simulated results of one run: the fields the digest
// covers. It leaves out simulator-internal counters (engine and roofline
// cache hits, host times) that a pure speed change may legitimately
// move. Both the public reports and the internal ones map onto it, so a
// plain run and a traced run of the same scenario must agree on it.
type outcome struct {
	Requests   int // arrivals
	Admitted   int
	Rejected   int
	Replicas   int // fleet slots (1 for a single instance)
	Iterations int
	SimEndPs   int64

	PromptTPS  float64
	TokensTPS  float64 // completed output tokens per second
	GoodputTPS float64 // SLO-attained output tokens per second (clusters)

	LatMeanSec  float64
	LatP50Sec   float64
	LatP99Sec   float64
	TTFTMeanSec float64
	TPOTMeanSec float64

	Evictions         int64
	Reloads           int64
	PrefixHitRate     float64
	PrefixTokensSaved int64
	PrefixSpillBytes  int64
	PrefixReloadBytes int64

	Classes  []classOutcome
	Sessions *sessionOutcome `json:",omitempty"`
}

type classOutcome struct {
	Name      string
	Requests  int
	Rejected  int
	Completed int
	Attained  int

	RejectedAdmission  int
	RejectedNoReplica  int
	RejectedUnservable int
	RejectedFailure    int

	TTFTP50Sec float64
	TTFTP99Sec float64
	TPOTP50Sec float64
	TPOTP99Sec float64
	GoodputTPS float64
}

type sessionOutcome struct {
	Sessions      int
	Completed     int
	Attained      int
	Turns         int
	TurnsRejected int
	OutputTokens  int64
}

// simEndPs recovers the exact picosecond end time from the report's
// float seconds. Below 2^53 ps (about 100 days) distinct picosecond
// counts map to distinct floats, so the round trip is exact; both report
// forms go through it, so they hash identically.
func simEndPs(sec float64) int64 { return int64(math.Round(sec * 1e12)) }

// digest hashes the outcome's canonical JSON form. encoding/json writes
// floats in their shortest exact round-trip form, so any change to a
// simulated value changes the digest.
func (o outcome) digest() string {
	b, err := json.Marshal(o)
	if err != nil {
		panic(err) // plain data; Marshal cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func singleOutcomePublic(rep *llm.Report, n int) outcome {
	return outcome{
		Requests:          n,
		Admitted:          rep.Latency.Count,
		Rejected:          rep.Rejected,
		Replicas:          1,
		Iterations:        rep.Iterations,
		SimEndPs:          simEndPs(rep.SimEndSec),
		PromptTPS:         rep.PromptTPS,
		TokensTPS:         rep.GenTPS,
		LatMeanSec:        rep.Latency.MeanSec,
		LatP50Sec:         rep.Latency.P50Sec,
		LatP99Sec:         rep.Latency.P99Sec,
		TTFTMeanSec:       rep.Latency.TTFTSec,
		TPOTMeanSec:       rep.Latency.TPOTSec,
		Evictions:         rep.KV.Evictions,
		Reloads:           rep.KV.Reloads,
		PrefixHitRate:     rep.KV.PrefixHitRate(),
		PrefixTokensSaved: rep.KV.PrefixTokensSaved,
		PrefixSpillBytes:  rep.KV.PrefixSpillBytes,
		PrefixReloadBytes: rep.KV.PrefixReloadBytes,
	}
}

func singleOutcomeInternal(rep *core.Report, n int) outcome {
	var hit float64
	if rep.KV.PrefixLookups > 0 {
		hit = float64(rep.KV.PrefixHits) / float64(rep.KV.PrefixLookups)
	}
	return outcome{
		Requests:          n,
		Admitted:          rep.Latency.Count,
		Rejected:          len(rep.Rejected),
		Replicas:          1,
		Iterations:        rep.Iterations,
		SimEndPs:          simEndPs(rep.SimEnd.Seconds()),
		PromptTPS:         rep.PromptTPS,
		TokensTPS:         rep.GenTPS,
		LatMeanSec:        rep.Latency.MeanSec,
		LatP50Sec:         rep.Latency.P50Sec,
		LatP99Sec:         rep.Latency.P99Sec,
		TTFTMeanSec:       rep.Latency.MeanTTFTSec,
		TPOTMeanSec:       rep.Latency.MeanTPOTSec,
		Evictions:         rep.KV.Evictions,
		Reloads:           rep.KV.Reloads,
		PrefixHitRate:     hit,
		PrefixTokensSaved: rep.KV.PrefixTokensSaved,
		PrefixSpillBytes:  rep.KV.PrefixSpillBytes,
		PrefixReloadBytes: rep.KV.PrefixReloadBytes,
	}
}

func clusterOutcomePublic(rep *llm.ClusterReport) outcome {
	o := outcome{
		Requests:          rep.Requests,
		Admitted:          rep.Admitted,
		Rejected:          rep.Rejected,
		Replicas:          rep.Replicas,
		Iterations:        rep.TotalIterations(),
		SimEndPs:          simEndPs(rep.SimEndSec),
		PromptTPS:         rep.PromptTPS,
		TokensTPS:         rep.ThroughputTPS,
		GoodputTPS:        rep.GoodputTPS,
		LatMeanSec:        rep.Latency.MeanSec,
		LatP50Sec:         rep.Latency.P50Sec,
		LatP99Sec:         rep.Latency.P99Sec,
		TTFTMeanSec:       rep.Latency.TTFTSec,
		TPOTMeanSec:       rep.Latency.TPOTSec,
		PrefixHitRate:     rep.PrefixHitRate,
		PrefixTokensSaved: rep.PrefixTokensSaved,
		PrefixSpillBytes:  rep.PrefixSpillBytes,
		PrefixReloadBytes: rep.PrefixReloadBytes,
	}
	o.Evictions, o.Reloads = rep.KVEvictions()
	for _, cs := range rep.Classes {
		o.Classes = append(o.Classes, classOutcome{
			Name:               cs.Class,
			Requests:           cs.Requests,
			Rejected:           cs.Rejected,
			Completed:          cs.Completed,
			Attained:           cs.SLOAttained,
			RejectedAdmission:  cs.RejectedAdmission,
			RejectedNoReplica:  cs.RejectedNoReplica,
			RejectedUnservable: cs.RejectedUnservable,
			RejectedFailure:    cs.RejectedFailure,
			TTFTP50Sec:         cs.TTFT.P50Sec,
			TTFTP99Sec:         cs.TTFT.P99Sec,
			TPOTP50Sec:         cs.TPOT.P50Sec,
			TPOTP99Sec:         cs.TPOT.P99Sec,
			GoodputTPS:         cs.GoodputTPS,
		})
	}
	if ss := rep.Sessions; ss != nil {
		o.Sessions = &sessionOutcome{
			Sessions: ss.Sessions, Completed: ss.Completed, Attained: ss.Attained,
			Turns: ss.Turns, TurnsRejected: ss.TurnsRejected, OutputTokens: ss.OutputTokens,
		}
	}
	return o
}

func clusterOutcomeInternal(rep *cluster.Report) outcome {
	o := outcome{
		Requests:          rep.Requests,
		Admitted:          rep.Admitted,
		Rejected:          rep.Rejected,
		Replicas:          rep.Replicas,
		SimEndPs:          simEndPs(rep.SimEnd.Seconds()),
		PromptTPS:         rep.PromptTPS,
		TokensTPS:         rep.ThroughputTPS,
		GoodputTPS:        rep.GoodputTPS,
		LatMeanSec:        rep.Latency.MeanSec,
		LatP50Sec:         rep.Latency.P50Sec,
		LatP99Sec:         rep.Latency.P99Sec,
		TTFTMeanSec:       rep.Latency.MeanTTFTSec,
		TPOTMeanSec:       rep.Latency.MeanTPOTSec,
		PrefixHitRate:     rep.PrefixHitRate(),
		PrefixTokensSaved: rep.PrefixTokensSaved,
		PrefixSpillBytes:  rep.PrefixSpillBytes,
		PrefixReloadBytes: rep.PrefixReloadBytes,
	}
	for _, p := range rep.PerReplica {
		o.Iterations += p.Iterations
		o.Evictions += p.Evictions
		o.Reloads += p.Reloads
	}
	for _, cs := range rep.Classes {
		o.Classes = append(o.Classes, classOutcome{
			Name:               cs.Class,
			Requests:           cs.Requests,
			Rejected:           cs.Rejected,
			Completed:          cs.Completed,
			Attained:           cs.SLOAttained,
			RejectedAdmission:  cs.RejectedAdmission,
			RejectedNoReplica:  cs.RejectedNoReplica,
			RejectedUnservable: cs.RejectedUnservable,
			RejectedFailure:    cs.RejectedFailure,
			TTFTP50Sec:         cs.TTFT.P50Sec,
			TTFTP99Sec:         cs.TTFT.P99Sec,
			TPOTP50Sec:         cs.TPOT.P50Sec,
			TPOTP99Sec:         cs.TPOT.P99Sec,
			GoodputTPS:         cs.GoodputTPS,
		})
	}
	if ss := rep.Sessions; ss != nil {
		o.Sessions = &sessionOutcome{
			Sessions: ss.Sessions, Completed: ss.Completed, Attained: ss.Attained,
			Turns: ss.Turns, TurnsRejected: ss.TurnsRejected, OutputTokens: ss.OutputTokens,
		}
	}
	return o
}

// conservation checks that every arrival reached exactly one terminal
// state and that the per-class breakdown sums to the totals. n is the
// number of arrivals the scenario generated. It returns one message per
// violated law.
func (o outcome) conservation(n int) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if o.Requests != n {
		fail("requests %d != generated arrivals %d", o.Requests, n)
	}
	if o.Admitted+o.Rejected != o.Requests {
		fail("admitted %d + rejected %d != requests %d", o.Admitted, o.Rejected, o.Requests)
	}
	if o.Iterations <= 0 || o.SimEndPs <= 0 {
		fail("empty run: %d iterations, end %d ps", o.Iterations, o.SimEndPs)
	}
	if len(o.Classes) == 0 {
		return bad
	}
	var req, rej, done int
	for _, c := range o.Classes {
		if c.Requests != c.Completed+c.Rejected {
			fail("class %s: requests %d != completed %d + rejected %d", c.Name, c.Requests, c.Completed, c.Rejected)
		}
		if r := c.RejectedAdmission + c.RejectedNoReplica + c.RejectedUnservable + c.RejectedFailure; r != c.Rejected {
			fail("class %s: rejection reasons sum to %d, rejected %d", c.Name, r, c.Rejected)
		}
		if c.Attained > c.Completed {
			fail("class %s: attained %d > completed %d", c.Name, c.Attained, c.Completed)
		}
		req += c.Requests
		rej += c.Rejected
		done += c.Completed
	}
	if req != o.Requests || rej != o.Rejected || done != o.Admitted {
		fail("class sums requests/rejected/completed %d/%d/%d != cluster %d/%d/%d",
			req, rej, done, o.Requests, o.Rejected, o.Admitted)
	}
	if s := o.Sessions; s != nil {
		if s.Turns != o.Requests || s.TurnsRejected != o.Rejected {
			fail("session turns %d (rejected %d) != requests %d (rejected %d)",
				s.Turns, s.TurnsRejected, o.Requests, o.Rejected)
		}
		if s.Attained > s.Completed || s.Completed > s.Sessions {
			fail("sessions: attained %d <= completed %d <= sessions %d violated", s.Attained, s.Completed, s.Sessions)
		}
	}
	return bad
}

// guards checks that the scenario still exercises the layer it exists
// for, so a resize cannot quietly make a workload skip its mechanism.
// led is nil for plain runs; ledger-only guards then wait for the traced
// run.
func (sc scenario) guards(o outcome, led *ledgerTotals) []string {
	var bad []string
	switch sc.name {
	case "paper-instance":
		if led != nil && led.pimLookups == 0 {
			bad = append(bad, "paper-instance: the PIM engine stack served no operators")
		}
	case "astra-fleet":
		if o.Evictions == 0 {
			bad = append(bad, "astra-fleet: no KV evictions")
		}
	case "session-prefix":
		if o.PrefixReloadBytes == 0 {
			bad = append(bad, "session-prefix: no prefix reloads from the host tier")
		}
		if o.PrefixHitRate < 0.5 {
			bad = append(bad, fmt.Sprintf("session-prefix: prefix hit ratio %.3f < 0.5", o.PrefixHitRate))
		}
	case "fleet-scale":
		if o.Replicas < 128 {
			bad = append(bad, fmt.Sprintf("fleet-scale: %d replicas < 128", o.Replicas))
		}
		for _, c := range o.Classes {
			if c.RejectedUnservable > 0 {
				bad = append(bad, fmt.Sprintf("fleet-scale: class %s has %d unservable rejections", c.Name, c.RejectedUnservable))
			}
		}
	}
	return bad
}

// pinned holds each workload's simulated-output digests for the inputs
// of the default seed at full size, indexed by input. A run at that seed
// must reproduce its input's digest exactly; any other seed is checked
// for agreement within its set of runs instead.
var pinned = map[string][]string{
	"paper-instance": {"987574dc5d6c888e", "f32a1f614a87320e", "1d45a2266fc0959e", "b476ef906c15ea26", "bef0839e3d9aba44", "40bfbb2f3c491b3d", "e3d850675ec4a5e2", "70059c2f8fb28186"},
	"astra-fleet":    {"7f65dcb1f52d797e", "82f75600d220b433", "e5168c29b98a16d4", "ee6a4668de5d1f08", "31641396b703333b", "8f7bc92784e51be6", "52f15dd497f1a4e6", "4eda407f7adb1b8e"},
	"session-prefix": {"f6fe82014f5d9e79", "45af8963f08cdee5", "e2222aeb721e9f49", "6b67e6cdb5d42a7d", "371c7737bdc5b578", "5c4a6361e3d47847", "8ac90759da0cf8de", "21c1890df865d913"},
	"fleet-scale":    {"e0262726f7895097", "fa57a9ad1e56e59e", "528cddbf2658b79f", "f4d1efb5ad1b7ccf", "ad9c079403c490a0", "86354a0d41fcad12", "15b53fcec7caca54", "a077655c30ae302f"},
}

// defaultSeed is the seed the pinned digests were recorded at.
const defaultSeed = 42
