// Package hw catalogs the GPU hardware the paper evaluates on and provides
// the analytical device performance model the simulator charges work
// against.
//
// A GPU is described by its memory capacity, dense-math throughput, memory
// bandwidth, and the bandwidth of the links that connect it to peers (PCIe
// or NVLink) and to the host. The paper's latency/throughput results are a
// function of exactly these quantities; internal/graph's EstimateSeconds
// turns them into pass times.
package hw

import "fmt"

const (
	// KiB, MiB, GiB are binary byte units.
	KiB = int64(1) << 10
	MiB = int64(1) << 20
	GiB = int64(1) << 30
)

// Interconnect identifies the GPU-to-GPU link technology.
type Interconnect int

const (
	// PCIe is a PCI Express link (the default for the paper's "w/o
	// NVLink" setups).
	PCIe Interconnect = iota
	// NVLink is NVIDIA's high-bandwidth GPU interconnect.
	NVLink
)

// String returns the conventional name for the interconnect.
func (i Interconnect) String() string {
	if i == NVLink {
		return "NVLink"
	}
	return "PCIe"
}

// GPU describes one accelerator for the analytical performance model.
type GPU struct {
	// Name is the marketing name, e.g. "NVIDIA H100 PCIe".
	Name string
	// MemoryBytes is the total device memory.
	MemoryBytes int64
	// MemoryUtil is the fraction of device memory the serving engine may
	// use (vLLM's gpu_memory_utilization). The remainder is reserved for
	// CUDA context, fragmentation slack and the framework — a roughly
	// constant ~2-4 GB in absolute terms, so the fraction grows with
	// device capacity.
	MemoryUtil float64
	// BF16TFLOPs is dense bf16 tensor-core throughput in teraFLOP/s.
	BF16TFLOPs float64
	// FP8TFLOPs is dense fp8 throughput; zero when the part has no fp8
	// units (A100), in which case fp8 weights still run at bf16 speed.
	FP8TFLOPs float64
	// MFU is the achievable model FLOPs utilization for large dense
	// matmuls (prefill is compute-bound, so this is the dominant
	// efficiency constant).
	MFU float64
	// MemBWBytes is HBM bandwidth in bytes/s (drives decode speed).
	MemBWBytes float64
	// PeerBWBytes is GPU-to-GPU bandwidth in bytes/s for the configured
	// Link (per direction, effective).
	PeerBWBytes float64
	// Link is the GPU-to-GPU interconnect technology.
	Link Interconnect
	// HostBWBytes is GPU-to-host (pinned-memory PCIe) bandwidth in
	// bytes/s, used by the KV-overflow fallback model.
	HostBWBytes float64
	// KernelLaunchOverhead is the fixed per-layer, per-pass overhead in
	// seconds (kernel launches, scheduling); keeps tiny requests from
	// being modelled as free.
	KernelLaunchOverhead float64
}

// Validate reports an error for physically meaningless specs.
func (g *GPU) Validate() error {
	switch {
	case g.MemoryBytes <= 0:
		return fmt.Errorf("gpu %q: MemoryBytes must be positive", g.Name)
	case g.MemoryUtil <= 0 || g.MemoryUtil > 1:
		return fmt.Errorf("gpu %q: MemoryUtil must be in (0,1], got %v", g.Name, g.MemoryUtil)
	case g.BF16TFLOPs <= 0:
		return fmt.Errorf("gpu %q: BF16TFLOPs must be positive", g.Name)
	case g.MFU <= 0 || g.MFU > 1:
		return fmt.Errorf("gpu %q: MFU must be in (0,1], got %v", g.Name, g.MFU)
	case g.MemBWBytes <= 0:
		return fmt.Errorf("gpu %q: MemBWBytes must be positive", g.Name)
	case g.PeerBWBytes <= 0:
		return fmt.Errorf("gpu %q: PeerBWBytes must be positive", g.Name)
	case g.HostBWBytes <= 0:
		return fmt.Errorf("gpu %q: HostBWBytes must be positive", g.Name)
	}
	return nil
}

// UsableBytes is the memory budget available to the engine after the
// utilization reserve.
func (g *GPU) UsableBytes() int64 {
	return int64(float64(g.MemoryBytes) * g.MemoryUtil)
}

// EffectiveFLOPs returns the sustained FLOP/s for matmuls whose weights are
// stored at the given precision width (1 byte → fp8 path when available).
func (g *GPU) EffectiveFLOPs(weightBytes int) float64 {
	t := g.BF16TFLOPs
	if weightBytes == 1 && g.FP8TFLOPs > 0 {
		t = g.FP8TFLOPs
	}
	return t * 1e12 * g.MFU
}

// L4 returns the NVIDIA L4 24GB spec (the paper's low-end GPU).
func L4() *GPU {
	return &GPU{
		Name:                 "NVIDIA L4",
		MemoryBytes:          24 * GiB,
		MemoryUtil:           0.90,
		BF16TFLOPs:           121,
		FP8TFLOPs:            242,
		MFU:                  0.45,
		MemBWBytes:           300e9,
		PeerBWBytes:          14e9, // PCIe gen4 x8, effective
		Link:                 PCIe,
		HostBWBytes:          12e9,
		KernelLaunchOverhead: 8e-6,
	}
}

// A100 returns the NVIDIA A100 40GB PCIe spec (the paper's middle-end GPU).
func A100() *GPU {
	return &GPU{
		Name:                 "NVIDIA A100 40GB PCIe",
		MemoryBytes:          40 * GiB,
		MemoryUtil:           0.92,
		BF16TFLOPs:           312,
		FP8TFLOPs:            0, // Ampere has no fp8 tensor cores
		MFU:                  0.50,
		MemBWBytes:           1.55e12,
		PeerBWBytes:          22e9, // PCIe gen4 x16, effective
		Link:                 PCIe,
		HostBWBytes:          20e9,
		KernelLaunchOverhead: 6e-6,
	}
}

// H100PCIe returns the NVIDIA H100 80GB PCIe spec without NVLink bridges
// (the paper's "H100 w/o NVLink" setup).
func H100PCIe() *GPU {
	return &GPU{
		Name:                 "NVIDIA H100 80GB PCIe",
		MemoryBytes:          80 * GiB,
		MemoryUtil:           0.95,
		BF16TFLOPs:           756,
		FP8TFLOPs:            1513,
		MFU:                  0.50,
		MemBWBytes:           2.0e12,
		PeerBWBytes:          25e9, // PCIe gen5 x16, effective
		Link:                 PCIe,
		HostBWBytes:          22e9,
		KernelLaunchOverhead: 5e-6,
	}
}

// H100NVLink returns the H100 spec with an NVLink bridge between the pair
// (the paper's "H100 w/ NVLink" setup).
func H100NVLink() *GPU {
	g := H100PCIe()
	g.Name = "NVIDIA H100 80GB NVLink"
	g.Link = NVLink
	g.PeerBWBytes = 350e9 // NVLink bridge, effective
	return g
}

// Presets returns the four hardware scenarios of Table 3 keyed by short
// name.
func Presets() map[string]*GPU {
	return map[string]*GPU{
		"l4":          L4(),
		"a100":        A100(),
		"h100":        H100PCIe(),
		"h100-nvlink": H100NVLink(),
	}
}
