// This file holds per-request accounting for cluster serving
// simulations: every arrival becomes a RequestRecord (routed to a
// replica or rejected at admission), records roll up into per-class
// summaries with SLO attainment and goodput, and both levels have TSV
// writers.

package metrics

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"repro/internal/simtime"
)

// SLO is a per-class service-level objective. A zero target means "no
// objective" for that component and is always attained.
type SLO struct {
	TTFT simtime.Duration // time-to-first-token target
	TPOT simtime.Duration // time-per-output-token target
}

// RequestRecord is the lifecycle of one request through a cluster:
// arrival, admission verdict, replica placement, and completion timing.
type RequestRecord struct {
	ID      int
	Class   string
	Replica int // replica index; -1 when rejected at admission

	InputLen, OutputLen int
	// CachedTokens counts the prompt tokens served from the replica's
	// shared-prefix KV cache instead of being recomputed at prefill.
	CachedTokens int

	Arrival    simtime.Time
	FirstToken simtime.Time
	Completed  simtime.Time

	Rejected bool
	// RejectReason classifies the refusal: "admission" (dropped by the
	// admission policy), "no-replica" (no routable replica existed, the
	// cluster-level 503), "unservable" (the scheduler can never serve
	// the request), or "failure" (lost to an injected replica failure).
	// Empty for served requests.
	RejectReason string

	// Session/Turn/SessionTurns mirror the request's conversation
	// identity (workload.Request): Session 0 means non-session traffic.
	Session      int
	Turn         int
	SessionTurns int
}

// TTFT returns the time from arrival to first output token.
func (r RequestRecord) TTFT() simtime.Duration { return r.FirstToken.Sub(r.Arrival) }

// TPOT returns the time per output token after the first; zero for
// single-token outputs.
func (r RequestRecord) TPOT() simtime.Duration {
	return LatencySample{
		Arrival: r.Arrival, FirstToken: r.FirstToken,
		Completed: r.Completed, OutputTokens: r.OutputLen,
	}.TPOT()
}

// Latency returns the end-to-end time from arrival to completion.
func (r RequestRecord) Latency() simtime.Duration { return r.Completed.Sub(r.Arrival) }

// MeetsSLO reports whether the completed request attained both SLO
// components. Rejected requests never attain.
func (r RequestRecord) MeetsSLO(slo SLO) bool {
	if r.Rejected {
		return false
	}
	if slo.TTFT > 0 && r.TTFT() > slo.TTFT {
		return false
	}
	if slo.TPOT > 0 && r.TPOT() > slo.TPOT {
		return false
	}
	return true
}

// Dist summarises one latency component's distribution in seconds, with
// nearest-rank percentiles.
type Dist struct {
	MeanSec, P50Sec, P95Sec, P99Sec float64
}

// NewDist computes a Dist from unordered values in seconds.
func NewDist(vals []float64) Dist {
	if len(vals) == 0 {
		return Dist{}
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return Dist{
		MeanSec: sum / float64(len(sorted)),
		P50Sec:  PercentileSorted(sorted, 0.50),
		P95Sec:  PercentileSorted(sorted, 0.95),
		P99Sec:  PercentileSorted(sorted, 0.99),
	}
}

// ClassSummary aggregates one traffic class's records: counts, latency
// component distributions, SLO attainment, and goodput.
type ClassSummary struct {
	Class string
	SLO   SLO

	Requests  int // arrivals (admitted + rejected)
	Rejected  int // refused, any reason
	Completed int // finished serving

	// Rejection breakdown by reason (sums to Rejected; see
	// RequestRecord.RejectReason for the taxonomy).
	RejectedAdmission  int
	RejectedNoReplica  int
	RejectedUnservable int
	RejectedFailure    int

	TTFT    Dist // over completed requests
	TPOT    Dist // over completed requests with >1 output token
	Latency Dist // end-to-end, over completed requests

	SLOAttained  int   // completed requests meeting both SLO components
	OutputTokens int64 // generated by completed requests
	CachedTokens int64 // prompt tokens served from the prefix cache

	// GoodputTPS is the SLO-attained generation throughput: output
	// tokens of SLO-attained requests per second of simulated time.
	GoodputTPS float64
	// ThroughputTPS counts all completed output tokens per second.
	ThroughputTPS float64
}

// SummarizeRequests rolls records up into per-class summaries, ordered
// by class name. slos maps class name to its objective (missing classes
// get the zero SLO, i.e. no objective); end is the simulated span the
// throughput and goodput rates are computed over.
func SummarizeRequests(records []RequestRecord, slos map[string]SLO, end simtime.Time) []ClassSummary {
	byClass := map[string]*ClassSummary{}
	names := []string{}
	get := func(name string) *ClassSummary {
		if s, ok := byClass[name]; ok {
			return s
		}
		s := &ClassSummary{Class: name, SLO: slos[name]}
		byClass[name] = s
		names = append(names, name)
		return s
	}

	ttft := map[string][]float64{}
	tpot := map[string][]float64{}
	lat := map[string][]float64{}
	attainedTokens := map[string]int64{}

	for _, r := range records {
		s := get(r.Class)
		s.Requests++
		if r.Rejected {
			s.Rejected++
			switch r.RejectReason {
			case "admission":
				s.RejectedAdmission++
			case "no-replica":
				s.RejectedNoReplica++
			case "unservable":
				s.RejectedUnservable++
			case "failure":
				s.RejectedFailure++
			}
			continue
		}
		s.Completed++
		s.OutputTokens += int64(r.OutputLen)
		s.CachedTokens += int64(r.CachedTokens)
		ttft[r.Class] = append(ttft[r.Class], r.TTFT().Seconds())
		lat[r.Class] = append(lat[r.Class], r.Latency().Seconds())
		if r.OutputLen > 1 {
			tpot[r.Class] = append(tpot[r.Class], r.TPOT().Seconds())
		}
		if r.MeetsSLO(s.SLO) {
			s.SLOAttained++
			attainedTokens[r.Class] += int64(r.OutputLen)
		}
	}

	endSec := end.Seconds()
	sort.Strings(names)
	out := make([]ClassSummary, 0, len(names))
	for _, name := range names {
		s := byClass[name]
		s.TTFT = NewDist(ttft[name])
		s.TPOT = NewDist(tpot[name])
		s.Latency = NewDist(lat[name])
		if endSec > 0 {
			s.GoodputTPS = float64(attainedTokens[name]) / endSec
			s.ThroughputTPS = float64(s.OutputTokens) / endSec
		}
		out = append(out, *s)
	}
	return out
}

// RequestsTSVWriter emits the cluster's *-requests.tsv format one row
// at a time, so streaming runs can write each record at its terminal
// event instead of retaining the records slice for a post-hoc dump.
// Errors are sticky: the first write failure is kept and returned by
// Flush (and every later call is a no-op).
type RequestsTSVWriter struct {
	bw          *bufio.Writer
	err         error
	wroteHeader bool
}

// NewRequestsTSVWriter returns a row writer over w.
func NewRequestsTSVWriter(w io.Writer) *RequestsTSVWriter {
	return &RequestsTSVWriter{bw: bufio.NewWriter(w)}
}

func (t *RequestsTSVWriter) header() {
	if t.wroteHeader || t.err != nil {
		return
	}
	t.wroteHeader = true
	_, t.err = fmt.Fprintln(t.bw, "id\tclass\treplica\tinput_toks\toutput_toks\tcached_toks\t"+
		"arrival_s\tttft_s\ttpot_s\tlatency_s\trejected\treject_reason")
}

// WriteRow appends one record's row (header first, on the first row).
func (t *RequestsTSVWriter) WriteRow(r *RequestRecord) {
	t.header()
	if t.err != nil {
		return
	}
	class := r.Class
	if class == "" {
		class = "-"
	}
	if r.Rejected {
		reason := r.RejectReason
		if reason == "" {
			reason = "-"
		}
		_, t.err = fmt.Fprintf(t.bw, "%d\t%s\t-\t%d\t%d\t%d\t%.6f\t-\t-\t-\t1\t%s\n",
			r.ID, class, r.InputLen, r.OutputLen, r.CachedTokens, r.Arrival.Seconds(), reason)
		return
	}
	_, t.err = fmt.Fprintf(t.bw, "%d\t%s\t%d\t%d\t%d\t%d\t%.6f\t%.6f\t%.6f\t%.6f\t0\t-\n",
		r.ID, class, r.Replica, r.InputLen, r.OutputLen, r.CachedTokens,
		r.Arrival.Seconds(), r.TTFT().Seconds(), r.TPOT().Seconds(),
		r.Latency().Seconds())
}

// Flush writes the header if no row did, drains the buffer, and
// returns the first error encountered.
func (t *RequestsTSVWriter) Flush() error {
	t.header()
	if t.err != nil {
		return t.err
	}
	return t.bw.Flush()
}

// WriteRequestsTSV writes one row per request record: the cluster's
// *-requests.tsv output.
func WriteRequestsTSV(w io.Writer, records []RequestRecord) error {
	tw := NewRequestsTSVWriter(w)
	for i := range records {
		tw.WriteRow(&records[i])
	}
	return tw.Flush()
}

// WriteClassSummaryTSV writes one row per traffic class: the cluster's
// *-classes.tsv output.
func WriteClassSummaryTSV(w io.Writer, summaries []ClassSummary) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "class\trequests\trejected\trej_admission\trej_no_replica\t"+
		"rej_unservable\trej_failure\tcompleted\tslo_attained\t"+
		"ttft_p50_s\tttft_p95_s\tttft_p99_s\ttpot_mean_s\t"+
		"latency_p50_s\tlatency_p99_s\tgoodput_tps\tthroughput_tps\tcached_toks"); err != nil {
		return err
	}
	for _, s := range summaries {
		class := s.Class
		if class == "" {
			class = "-"
		}
		if _, err := fmt.Fprintf(bw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.2f\t%.2f\t%d\n",
			class, s.Requests, s.Rejected,
			s.RejectedAdmission, s.RejectedNoReplica, s.RejectedUnservable, s.RejectedFailure,
			s.Completed, s.SLOAttained,
			s.TTFT.P50Sec, s.TTFT.P95Sec, s.TTFT.P99Sec, s.TPOT.MeanSec,
			s.Latency.P50Sec, s.Latency.P99Sec, s.GoodputTPS, s.ThroughputTPS,
			s.CachedTokens); err != nil {
			return err
		}
	}
	return bw.Flush()
}
