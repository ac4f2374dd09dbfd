// Package simtime provides the simulated time base shared by every
// component of the simulator.
//
// Simulated time is counted in integer picoseconds so that cycle counts at
// multi-GHz clock frequencies and sub-nanosecond link latencies can be
// represented exactly. Picoseconds in an int64 cover about 106 days of
// simulated time, far beyond any serving trace we replay.
//
// Simulated time is distinct from host wall-clock time: the former is what
// the modelled system experiences, the latter is how long the simulation
// itself takes to run (the paper's "simulation time", Figs. 8-10).
package simtime

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in simulated time, in picoseconds since simulation start.
type Time int64

// Duration is a span of simulated time, in picoseconds.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Forever is a time later than any reachable simulation instant.
const Forever Time = math.MaxInt64

// Add returns t shifted forward by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds returns the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds returns the duration as floating-point milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Std converts the simulated duration into a time.Duration (nanosecond
// resolution; sub-nanosecond remainders are truncated).
func (d Duration) Std() time.Duration { return time.Duration(d / Nanosecond) }

// FromStd converts a standard library duration into a simulated duration.
func FromStd(d time.Duration) Duration { return Duration(d) * Nanosecond }

// FromSeconds converts floating-point seconds into a Duration, rounding to
// the nearest picosecond.
func FromSeconds(s float64) Duration { return Duration(math.Round(s * float64(Second))) }

// AtSeconds converts floating-point seconds into a Time.
func AtSeconds(s float64) Time { return Time(FromSeconds(s)) }

func (t Time) String() string     { return Duration(t).String() }
func (d Duration) String() string { return formatPs(int64(d)) }

func formatPs(ps int64) string {
	neg := ""
	if ps < 0 {
		neg, ps = "-", -ps
	}
	switch {
	case ps >= int64(Second):
		return fmt.Sprintf("%s%.6gs", neg, float64(ps)/float64(Second))
	case ps >= int64(Millisecond):
		return fmt.Sprintf("%s%.6gms", neg, float64(ps)/float64(Millisecond))
	case ps >= int64(Microsecond):
		return fmt.Sprintf("%s%.6gus", neg, float64(ps)/float64(Microsecond))
	case ps >= int64(Nanosecond):
		return fmt.Sprintf("%s%.6gns", neg, float64(ps)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%s%dps", neg, ps)
	}
}

// Cycles converts a cycle count at the given clock frequency (Hz) into a
// Duration, rounding up so that partial cycles still cost a full cycle.
func Cycles(cycles int64, freqHz float64) Duration {
	if cycles <= 0 {
		return 0
	}
	psPerCycle := float64(Second) / freqHz
	return Duration(math.Ceil(float64(cycles) * psPerCycle))
}

// Transfer returns the time to move the given number of bytes over a link
// of bandwidthBytesPerSec, excluding propagation latency.
func Transfer(bytes int64, bandwidthBytesPerSec float64) Duration {
	if bytes <= 0 || bandwidthBytesPerSec <= 0 {
		return 0
	}
	return Duration(math.Ceil(float64(bytes) / bandwidthBytesPerSec * float64(Second)))
}

// Max returns the larger of two durations.
func Max(a, b Duration) Duration {
	if a > b {
		return a
	}
	return b
}

// Later returns the later of two instants.
func Later(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
