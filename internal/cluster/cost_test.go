package cluster

import (
	"testing"
	"time"
)

func TestEstimateComponents(t *testing.T) {
	m := CostModel{Latency: time.Microsecond, BandwidthBytesPerSec: 1e9}
	// 1000 messages = 1ms latency; 1e9 bytes = 1s transfer; 10 barriers on
	// 8 machines = 10·3µs.
	got := m.Estimate(1000, 1e9, 10, 8)
	want := time.Millisecond + time.Second + 30*time.Microsecond
	if got != want {
		t.Fatalf("estimate %v, want %v", got, want)
	}
}

func TestEstimateSingleMachineFree(t *testing.T) {
	if d := InfiniBandEDR().Estimate(1e6, 1e12, 100, 1); d != 0 {
		t.Fatalf("single machine network time %v, want 0", d)
	}
}

func TestInterconnectOrdering(t *testing.T) {
	// The same traffic must cost more on 10GbE than on InfiniBand.
	ib := InfiniBandEDR().Estimate(1e5, 1e9, 50, 64)
	tenGbE := CostModel{Latency: 50 * time.Microsecond, BandwidthBytesPerSec: 1.25e9}
	ge := tenGbE.Estimate(1e5, 1e9, 50, 64)
	if ge <= ib {
		t.Fatalf("10GbE %v not above InfiniBand %v", ge, ib)
	}
}

func TestEstimateMonotoneInTraffic(t *testing.T) {
	m := InfiniBandEDR()
	small := m.Estimate(100, 1e6, 5, 16)
	big := m.Estimate(200, 2e6, 5, 16)
	if big <= small {
		t.Fatalf("doubling traffic did not raise the estimate (%v vs %v)", big, small)
	}
}
