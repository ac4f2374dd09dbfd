package llmservingsim

// Public surface of the ServeGen-style session workload layer and the
// versioned trace-replay format: client populations with heavy-tailed
// rates, multi-turn sessions with context growth, a recorder that tees
// any arrival stream into a replay trace, and a replay stream that
// feeds a recorded trace back through the engine bit-identically.

import (
	"fmt"
	"io"
	"os"

	"repro/internal/workload"
)

// PopulationSpec describes a client population: how many clients, how
// their per-client rates are distributed (heavy-tailed), and optional
// diurnal and burst rate modulation. Clients are apportioned to the
// scenario's traffic classes by rate share, so each class keeps its
// aggregate request rate.
type PopulationSpec struct {
	Clients  int
	RateDist string  // "zipf" | "lognormal"
	Skew     float64 // zipf exponent, or lognormal sigma

	// Diurnal modulation: rate scaled by 1+Amp*sin(2*pi*(t+phase)/Period)
	// with a per-client phase; Amp 0 disables. Period is in simulated
	// seconds.
	DiurnalAmp    float64
	DiurnalPeriod float64

	// Burst episodes: fraction BurstFrac of time in bursts of mean
	// length BurstMean seconds at BurstFactor times the base rate,
	// renormalised to preserve the long-run mean. BurstFrac 0 disables.
	BurstFactor float64
	BurstFrac   float64
	BurstMean   float64
}

func (p PopulationSpec) internal() workload.Population {
	return workload.Population{
		Clients: p.Clients, RateDist: p.RateDist, Skew: p.Skew,
		DiurnalAmp: p.DiurnalAmp, DiurnalPeriod: p.DiurnalPeriod,
		BurstFactor: p.BurstFactor, BurstFrac: p.BurstFrac, BurstMean: p.BurstMean,
	}
}

// Validate reports an error if the population spec is malformed.
func (p PopulationSpec) Validate() error { return p.internal().Validate() }

// ParsePopulation converts a population spec string
// "clients:rate_dist:skew[:diurnal_amp:diurnal_period_s[:burst_factor:burst_frac:burst_mean_s]]",
// e.g. "200:zipf:1.2" or "500:zipf:1:0.3:86400:4:0.05:60".
func ParsePopulation(spec string) (PopulationSpec, error) {
	p, err := workload.ParsePopulation(spec)
	if err != nil {
		return PopulationSpec{}, err
	}
	return PopulationSpec{
		Clients: p.Clients, RateDist: p.RateDist, Skew: p.Skew,
		DiurnalAmp: p.DiurnalAmp, DiurnalPeriod: p.DiurnalPeriod,
		BurstFactor: p.BurstFactor, BurstFrac: p.BurstFrac, BurstMean: p.BurstMean,
	}, nil
}

// SessionSpec describes multi-turn conversation structure: geometric
// session lengths with mean MeanTurns, lognormal think times between
// turns, and context growth clamped at MaxContext tokens (turn n's
// prompt carries all prior turns' tokens as a per-conversation cached
// prefix).
type SessionSpec struct {
	MeanTurns  float64 // mean turns per session, >= 1
	ThinkMean  float64 // mean think time between turns, seconds
	ThinkSigma float64 // lognormal sigma of think times
	MaxContext int     // context clamp in tokens; 0 = unlimited
}

func (s SessionSpec) internal() workload.SessionSpec {
	return workload.SessionSpec{
		MeanTurns: s.MeanTurns, ThinkMean: s.ThinkMean,
		ThinkSigma: s.ThinkSigma, MaxContext: s.MaxContext,
	}
}

// Validate reports an error if the session spec is malformed.
func (s SessionSpec) Validate() error { return s.internal().Validate() }

// DefaultSessionSpec is the session structure used when a population
// runs without an explicit spec: four-turn conversations, ~10 s think
// times, 4096-token context clamp.
func DefaultSessionSpec() SessionSpec {
	d := workload.DefaultSessionSpec()
	return SessionSpec{MeanTurns: d.MeanTurns, ThinkMean: d.ThinkMean,
		ThinkSigma: d.ThinkSigma, MaxContext: d.MaxContext}
}

// ParseSessionSpec converts a session spec string
// "mean_turns:think_mean_s:think_sigma[:max_context]", e.g. "4:10:0.6".
func ParseSessionSpec(spec string) (SessionSpec, error) {
	s, err := workload.ParseSessionSpec(spec)
	if err != nil {
		return SessionSpec{}, err
	}
	return SessionSpec{MeanTurns: s.MeanTurns, ThinkMean: s.ThinkMean,
		ThinkSigma: s.ThinkSigma, MaxContext: s.MaxContext}, nil
}

// PopulationStream generates session traffic from a client population
// one request at a time, in arrival order: per-client Poisson session
// initiations (heavy-tailed rates, diurnal/burst modulation),
// geometric turn counts, lognormal think times, and per-conversation
// prefix growth. Feeding it to a ClusterScenario via TraceStream is
// byte-identical to collecting it with PopulationTrace first.
type PopulationStream struct {
	inner *workload.PopulationStream
}

// NewPopulationStream validates the specs and returns the generator.
func NewPopulationStream(classes []TrafficClass, pop PopulationSpec, sess SessionSpec, n int, seed int64) (*PopulationStream, error) {
	wc, err := internalClasses(classes)
	if err != nil {
		return nil, err
	}
	s, err := workload.NewPopulationStream(wc, pop.internal(), sess.internal(), n, seed)
	if err != nil {
		return nil, err
	}
	return &PopulationStream{inner: s}, nil
}

// Next returns the population's next request.
func (s *PopulationStream) Next() (Request, bool) {
	r, ok := s.inner.Next()
	if !ok {
		return Request{}, false
	}
	return publicRequest(r), true
}

// Err reports a terminal generator error (the arrival process
// overflowing the representable time range).
func (s *PopulationStream) Err() error { return s.inner.Err() }

// Target returns the request count the stream was built for.
func (s *PopulationStream) Target() int { return s.inner.Target() }

// PopulationTrace materializes n session-structured requests — the
// collect form of NewPopulationStream, byte-identical per seed.
func PopulationTrace(classes []TrafficClass, pop PopulationSpec, sess SessionSpec, n int, seed int64) ([]Request, error) {
	wc, err := internalClasses(classes)
	if err != nil {
		return nil, err
	}
	reqs, err := workload.PopulationTrace(wc, pop.internal(), sess.internal(), n, seed)
	if err != nil {
		return nil, err
	}
	return fromWorkload(reqs), nil
}

// ReplayTraceVersion is the trace-replay format version this build
// reads and writes.
const ReplayTraceVersion = workload.ReplayVersion

// ReplayStream replays a recorded trace as a RequestStream: exact
// picosecond arrivals, per-request prefix keys, and session identity
// round-trip, so a replayed run is bit-identical to the run that
// recorded the trace. The version header is validated on open.
type ReplayStream struct {
	inner  *workload.ReplayStream
	closer io.Closer
}

// OpenReplayTrace opens a replay trace file, validating its version
// header. Close the stream after the run drains it.
func OpenReplayTrace(path string) (*ReplayStream, error) {
	s, f, err := workload.OpenReplayFile(path)
	if err != nil {
		return nil, err
	}
	return &ReplayStream{inner: s, closer: f}, nil
}

// NewReplayStream reads a replay trace from r, validating its version
// header eagerly.
func NewReplayStream(r io.Reader) (*ReplayStream, error) {
	s, err := workload.NewReplayStream(r)
	if err != nil {
		return nil, err
	}
	return &ReplayStream{inner: s}, nil
}

// Next returns the trace's next request.
func (s *ReplayStream) Next() (Request, bool) {
	r, ok := s.inner.Next()
	if !ok {
		return Request{}, false
	}
	return publicRequest(r), true
}

// Err reports the parse error that terminated the replay early, nil on
// a clean end of trace.
func (s *ReplayStream) Err() error { return s.inner.Err() }

// Generator returns the recorded generator fingerprint from the trace
// header.
func (s *ReplayStream) Generator() string { return s.inner.Generator() }

// Close releases the underlying file (no-op for reader-backed streams).
func (s *ReplayStream) Close() error {
	if s.closer == nil {
		return nil
	}
	return s.closer.Close()
}

// LoadReplayTrace reads a whole replay trace file into memory.
func LoadReplayTrace(path string) ([]Request, error) {
	reqs, err := workload.LoadReplayFile(path)
	if err != nil {
		return nil, err
	}
	return fromWorkload(reqs), nil
}

// SaveReplayTrace writes a trace to a replay file whose header records
// the format version and the generator fingerprint.
func SaveReplayTrace(path string, trace []Request, generator string) error {
	return workload.SaveReplayFile(path, toWorkload(trace), generator)
}

// RecordingStream tees a RequestStream into a replay trace as the
// engine pulls it: each request is written (at the engine's exact
// internal resolution) before being handed on, so the recorded trace
// replays bit-identically against the run that produced it. Close the
// recorder after the run to flush the trace; a write failure surfaces
// there.
type RecordingStream struct {
	s RequestStream
	w *workload.ReplayWriter
}

// NewRecordingStream wraps s, writing every pulled request to w in the
// replay format under the given generator fingerprint.
func NewRecordingStream(s RequestStream, w io.Writer, generator string) *RecordingStream {
	return &RecordingStream{s: s, w: workload.NewReplayWriter(w, generator)}
}

// Next pulls from the wrapped stream, recording the request.
func (r *RecordingStream) Next() (Request, bool) {
	req, ok := r.s.Next()
	if !ok {
		return Request{}, false
	}
	r.w.Write(internalRequest(req, 0))
	return req, true
}

// Err forwards the wrapped stream's terminal error.
func (r *RecordingStream) Err() error {
	if e, ok := r.s.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// Target forwards the wrapped stream's emission target.
func (r *RecordingStream) Target() int {
	if t, ok := r.s.(interface{ Target() int }); ok {
		return t.Target()
	}
	return 0
}

// Close flushes the recorded trace and returns the first write error.
func (r *RecordingStream) Close() error { return r.w.Close() }

// RecordReplayFile is a convenience over NewRecordingStream for file
// targets: it creates path and returns the recorder plus a close
// function that flushes the trace and closes the file.
func RecordReplayFile(path string, s RequestStream, generator string) (*RecordingStream, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("recording trace: %w", err)
	}
	rec := NewRecordingStream(s, f, generator)
	closeFn := func() error {
		if err := rec.Close(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return rec, closeFn, nil
}
