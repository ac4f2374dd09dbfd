// Package config defines the hardware, network, and simulation
// configuration surface of the simulator, mirroring the artifact's JSON
// config files (NPU config, network config) and its 16 CLI parameters.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// GB is 2^30 bytes.
const GB = int64(1) << 30

// NPUConfig describes a systolic-array NPU (Table I, left column).
type NPUConfig struct {
	Name             string  `json:"name"`
	SystolicRows     int     `json:"systolic_rows"`      // 128
	SystolicCols     int     `json:"systolic_cols"`      // 128
	VectorLanes      int     `json:"vector_lanes"`       // 128 (128x1 vector unit)
	FrequencyHz      float64 `json:"frequency_hz"`       // 1e9
	MemoryBytes      int64   `json:"memory_bytes"`       // 24 GB
	MemoryBWBytes    float64 `json:"memory_bw_bytes"`    // 936 GB/s internal bandwidth
	SRAMBytes        int64   `json:"sram_bytes"`         // on-chip scratchpad
	OpOverheadCycles int64   `json:"op_overhead_cycles"` // per-operator launch cost
}

// PeakFLOPs returns the peak compute rate of the systolic array in FLOP/s
// (2 FLOPs per MAC per cycle).
func (c NPUConfig) PeakFLOPs() float64 {
	return 2 * float64(c.SystolicRows) * float64(c.SystolicCols) * c.FrequencyHz
}

// Validate reports configuration errors.
func (c NPUConfig) Validate() error {
	switch {
	case c.SystolicRows <= 0 || c.SystolicCols <= 0:
		return fmt.Errorf("npu %s: systolic array dims must be positive", c.Name)
	case c.VectorLanes <= 0:
		return fmt.Errorf("npu %s: vector lanes must be positive", c.Name)
	case c.FrequencyHz <= 0:
		return fmt.Errorf("npu %s: frequency must be positive", c.Name)
	case c.MemoryBytes <= 0:
		return fmt.Errorf("npu %s: memory capacity must be positive", c.Name)
	case c.MemoryBWBytes <= 0:
		return fmt.Errorf("npu %s: memory bandwidth must be positive", c.Name)
	case c.SRAMBytes <= 0:
		return fmt.Errorf("npu %s: sram capacity must be positive", c.Name)
	}
	return nil
}

// PIMConfig describes a processing-in-memory device (Table I, right
// column): compute units in every DRAM bank exploiting aggregated internal
// bandwidth for GEMV.
type PIMConfig struct {
	Name              string  `json:"name"`
	BanksPerBankgroup int     `json:"banks_per_bankgroup"` // 4
	BanksPerChannel   int     `json:"banks_per_channel"`   // 32
	Channels          int     `json:"channels"`
	FrequencyHz       float64 `json:"frequency_hz"`    // 1e9
	MemoryBytes       int64   `json:"memory_bytes"`    // 32 GB
	MemoryBWBytes     float64 `json:"memory_bw_bytes"` // 1 TB/s internal bandwidth
	LanesPerBank      int     `json:"lanes_per_bank"`  // MACs per bank compute unit
	CommandCycles     int64   `json:"command_cycles"`  // per-command issue overhead
}

// TotalBanks returns the number of concurrently computing banks.
func (c PIMConfig) TotalBanks() int { return c.BanksPerChannel * c.Channels }

// PeakFLOPs returns the aggregate bank-level compute rate in FLOP/s.
func (c PIMConfig) PeakFLOPs() float64 {
	return 2 * float64(c.TotalBanks()) * float64(c.LanesPerBank) * c.FrequencyHz
}

// Validate reports configuration errors.
func (c PIMConfig) Validate() error {
	switch {
	case c.BanksPerBankgroup <= 0 || c.BanksPerChannel <= 0 || c.Channels <= 0:
		return fmt.Errorf("pim %s: bank organisation must be positive", c.Name)
	case c.FrequencyHz <= 0:
		return fmt.Errorf("pim %s: frequency must be positive", c.Name)
	case c.MemoryBytes <= 0:
		return fmt.Errorf("pim %s: memory capacity must be positive", c.Name)
	case c.MemoryBWBytes <= 0:
		return fmt.Errorf("pim %s: memory bandwidth must be positive", c.Name)
	case c.LanesPerBank <= 0:
		return fmt.Errorf("pim %s: lanes per bank must be positive", c.Name)
	}
	return nil
}

// GPUConfig describes the GPU reference device used as the real-system
// stand-in for validation (RTX 3090-like by default).
type GPUConfig struct {
	Name           string  `json:"name"`
	PeakFLOPs      float64 `json:"peak_flops"`       // fp16 tensor-core peak
	MemoryBytes    int64   `json:"memory_bytes"`     // 24 GB
	MemoryBWBytes  float64 `json:"memory_bw_bytes"`  // 936 GB/s
	KernelLaunchUs float64 `json:"kernel_launch_us"` // per-kernel launch overhead
	GEMMEfficiency float64 `json:"gemm_efficiency"`  // fraction of peak for GEMM
	FlashAttention bool    `json:"flash_attention"`  // fused attention kernels
}

// Validate reports configuration errors.
func (c GPUConfig) Validate() error {
	switch {
	case c.PeakFLOPs <= 0:
		return fmt.Errorf("gpu %s: peak flops must be positive", c.Name)
	case c.MemoryBytes <= 0:
		return fmt.Errorf("gpu %s: memory capacity must be positive", c.Name)
	case c.MemoryBWBytes <= 0:
		return fmt.Errorf("gpu %s: memory bandwidth must be positive", c.Name)
	case c.GEMMEfficiency <= 0 || c.GEMMEfficiency > 1:
		return fmt.Errorf("gpu %s: gemm efficiency must be in (0,1]", c.Name)
	}
	return nil
}

// LinkConfig describes inter-device interconnect (Table I bottom:
// PCIe 4.0 x16-equivalent by default).
type LinkConfig struct {
	BandwidthBytes float64 `json:"bandwidth_bytes"` // 64 GB/s
	LatencyNs      float64 `json:"latency_ns"`      // 100 ns
}

// Validate reports configuration errors.
func (c LinkConfig) Validate() error {
	if c.BandwidthBytes <= 0 {
		return fmt.Errorf("link: bandwidth must be positive")
	}
	if c.LatencyNs < 0 {
		return fmt.Errorf("link: latency must be non-negative")
	}
	return nil
}

// DefaultNPU returns the Table I NPU configuration (tuned to roughly match
// an RTX 3090 as the paper does).
func DefaultNPU() NPUConfig {
	return NPUConfig{
		Name:             "genesys-128x128",
		SystolicRows:     128,
		SystolicCols:     128,
		VectorLanes:      128,
		FrequencyHz:      1e9,
		MemoryBytes:      24 * GB,
		MemoryBWBytes:    936e9,
		SRAMBytes:        16 << 20, // 16 MiB scratchpad
		OpOverheadCycles: 500,
	}
}

// DefaultPIM returns the Table I PIM configuration (NeuPIMs-style).
func DefaultPIM() PIMConfig {
	return PIMConfig{
		Name:              "neupims-pim",
		BanksPerBankgroup: 4,
		BanksPerChannel:   32,
		Channels:          16,
		FrequencyHz:       1e9,
		MemoryBytes:       32 * GB,
		MemoryBWBytes:     1e12,
		LanesPerBank:      16,
		CommandCycles:     32,
	}
}

// DefaultGPU returns an RTX 3090-like reference GPU.
func DefaultGPU() GPUConfig {
	return GPUConfig{
		Name:           "rtx3090",
		PeakFLOPs:      71e12, // fp16 tensor-core with fp32 accumulate
		MemoryBytes:    24 * GB,
		MemoryBWBytes:  936e9,
		KernelLaunchUs: 5,
		GEMMEfficiency: 0.46,
		FlashAttention: true,
	}
}

// DefaultLink returns the Table I inter-device link (PCIe 4.0 x16).
func DefaultLink() LinkConfig {
	return LinkConfig{BandwidthBytes: 64e9, LatencyNs: 100}
}

// LoadJSON reads any of the config types from a JSON file holding one
// object. A key the type does not declare (a misspelt field would
// otherwise leave its default silently in place) and data after the
// object are errors.
func LoadJSON(path string, v interface{}) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("config: parsing %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("config: parsing %s: unexpected data after the JSON object", path)
	}
	return nil
}
