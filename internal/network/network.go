// Package network models the system topology of a scale-out serving
// deployment — accelerator nodes organised into tensor-parallel groups and
// pipeline stages, connected by high-bandwidth links to one another and to
// the host — together with analytic cost models for the collectives the
// execution graph uses (ring all-reduce, point-to-point activation
// transfers, host paging traffic). This plays the role of ASTRA-sim's
// analytical network backend.
package network

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/simtime"
)

// Parallelism selects how the model is distributed across accelerators.
type Parallelism int

const (
	// Tensor parallelism shards every weight matrix across all nodes.
	Tensor Parallelism = iota
	// Pipeline parallelism assigns contiguous layer ranges to nodes.
	Pipeline
	// Hybrid combines both: pipeline across groups, tensor within groups.
	Hybrid
)

func (p Parallelism) String() string {
	switch p {
	case Tensor:
		return "tensor"
	case Pipeline:
		return "pipeline"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Parallelism(%d)", int(p))
	}
}

// Topology is the accelerator system layout: Stages pipeline stages, each
// a tensor-parallel group of TP nodes, as in Fig. 3. Node IDs are dense:
// stage s owns nodes [s*TP, (s+1)*TP).
type Topology struct {
	Mode   Parallelism
	Stages int // pipeline-parallel groups
	TP     int // tensor-parallel nodes per group

	Link     config.LinkConfig // device<->device
	HostLink config.LinkConfig // device<->host (KV paging path)

	// PIMPool, when positive, adds a separate pool of PIM nodes reachable
	// over Link (the Fig. 5(b) system); PIM node IDs follow the NPU IDs.
	PIMPool int
}

// Build derives a topology from the artifact-style parameters: total NPU
// count, group count (hybrid), and the parallelism mode.
func Build(mode Parallelism, npuNum, npuGroup int, link, hostLink config.LinkConfig) (Topology, error) {
	if npuNum <= 0 {
		return Topology{}, fmt.Errorf("network: npu count must be positive, got %d", npuNum)
	}
	t := Topology{Mode: mode, Link: link, HostLink: hostLink}
	switch mode {
	case Tensor:
		t.Stages, t.TP = 1, npuNum
	case Pipeline:
		t.Stages, t.TP = npuNum, 1
	case Hybrid:
		if npuGroup <= 0 {
			return Topology{}, fmt.Errorf("network: hybrid parallelism needs a positive npu group count, got %d", npuGroup)
		}
		if npuNum%npuGroup != 0 {
			return Topology{}, fmt.Errorf("network: %d NPUs not divisible into %d groups", npuNum, npuGroup)
		}
		t.Stages, t.TP = npuGroup, npuNum/npuGroup
	default:
		return Topology{}, fmt.Errorf("network: unknown parallelism %v", mode)
	}
	if err := link.Validate(); err != nil {
		return Topology{}, err
	}
	if err := hostLink.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

// Nodes returns the total accelerator node count (NPUs + PIM pool).
func (t Topology) Nodes() int { return t.Stages*t.TP + t.PIMPool }

// NPUNodes returns the NPU node count.
func (t Topology) NPUNodes() int { return t.Stages * t.TP }

// StageNodes returns the node IDs of pipeline stage s.
func (t Topology) StageNodes(s int) []int {
	ids := make([]int, t.TP)
	for i := range ids {
		ids[i] = s*t.TP + i
	}
	return ids
}

// PIMNodes returns the node IDs of the PIM pool (empty if none).
func (t Topology) PIMNodes() []int {
	ids := make([]int, t.PIMPool)
	for i := range ids {
		ids[i] = t.NPUNodes() + i
	}
	return ids
}

// Validate checks internal consistency.
func (t Topology) Validate() error {
	if t.Stages <= 0 || t.TP <= 0 {
		return fmt.Errorf("network: topology must have positive stages and tp, got %dx%d", t.Stages, t.TP)
	}
	if t.PIMPool < 0 {
		return fmt.Errorf("network: negative pim pool size %d", t.PIMPool)
	}
	return nil
}

// linkSeconds converts a LinkConfig into (bandwidth B/s, latency Duration).
func linkParams(l config.LinkConfig) (bw float64, lat simtime.Duration) {
	return l.BandwidthBytes, simtime.Duration(l.LatencyNs * float64(simtime.Nanosecond))
}

// P2P returns the time to move bytes across one device link hop.
func (t Topology) P2P(bytes int64) simtime.Duration {
	bw, lat := linkParams(t.Link)
	return lat + simtime.Transfer(bytes, bw)
}

// HostTransfer returns the time to move bytes between a device and host
// memory (KV-cache page eviction/reload).
func (t Topology) HostTransfer(bytes int64) simtime.Duration {
	bw, lat := linkParams(t.HostLink)
	return lat + simtime.Transfer(bytes, bw)
}

// AllReduce returns the time for a ring all-reduce of the given payload
// across n nodes: 2(n-1)/n of the data crosses each link, with 2(n-1)
// latency-bound steps.
func (t Topology) AllReduce(bytes int64, n int) simtime.Duration {
	if n <= 1 || bytes <= 0 {
		return 0
	}
	bw, lat := linkParams(t.Link)
	steps := int64(2 * (n - 1))
	perStep := simtime.Transfer((bytes+int64(n)-1)/int64(n), bw)
	return simtime.Duration(steps) * (lat + perStep)
}

// AllGather returns the time for a ring all-gather of bytes per node
// across n nodes.
func (t Topology) AllGather(bytes int64, n int) simtime.Duration {
	if n <= 1 || bytes <= 0 {
		return 0
	}
	bw, lat := linkParams(t.Link)
	steps := int64(n - 1)
	return simtime.Duration(steps) * (lat + simtime.Transfer(bytes, bw))
}

// String renders the topology in the paper's "TP4 PP2" notation.
func (t Topology) String() string {
	s := fmt.Sprintf("TP%d PP%d", t.TP, t.Stages)
	if t.PIMPool > 0 {
		s += fmt.Sprintf(" +PIM%d", t.PIMPool)
	}
	return s
}
