package cluster

import "time"

// CostModel converts accounted communication (messages, bytes, barriers)
// into simulated wall-clock time on a physical cluster. The in-process
// runtime measures algorithmic work directly, but its communication is
// memcpy-fast; this model recovers the network component the paper's
// InfiniBand testbed would add, so elapsed-time *shapes* (Fig. 10) can be
// sanity-checked against a cluster profile without owning one.
//
// The alpha-beta model is standard: each message costs Latency, each byte
// costs 1/Bandwidth, and each barrier costs one log2(P) latency tree.
type CostModel struct {
	// Latency is the per-message cost (α). InfiniBand EDR ≈ 1µs; 10GbE ≈ 50µs.
	Latency time.Duration
	// BandwidthBytesPerSec is the per-link bandwidth (1/β).
	// InfiniBand EDR ≈ 12.5 GB/s; 10GbE ≈ 1.25 GB/s.
	BandwidthBytesPerSec float64
}

// InfiniBandEDR approximates the paper's interconnect (§7.1, Table 3).
func InfiniBandEDR() CostModel {
	return CostModel{Latency: time.Microsecond, BandwidthBytesPerSec: 12.5e9}
}

// Estimate returns the simulated network time for the given totals. machines
// scales the barrier tree; barriers may be 0 when unknown.
func (m CostModel) Estimate(messages, bytes int64, barriers, machines int) time.Duration {
	if machines < 2 {
		return 0
	}
	d := time.Duration(messages) * m.Latency
	if m.BandwidthBytesPerSec > 0 {
		d += time.Duration(float64(bytes) / m.BandwidthBytesPerSec * float64(time.Second))
	}
	depth := 0
	for n := 1; n < machines; n *= 2 {
		depth++
	}
	d += time.Duration(barriers) * time.Duration(depth) * m.Latency
	return d
}
