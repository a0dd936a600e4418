package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/distributedne/dne/internal/dsa"
)

// Deterministic fault injection. FaultComm wraps a Comm and, following a
// schedule that is a pure function of (seed, rank, op-count), kills the
// transport, delays frames, or (through Dialer) fails dial attempts. Because
// the schedule depends on nothing else — no wall clock, no goroutine
// interleaving — a chaos run is reproducible: the same seed kills the same
// rank at the same operation every time, which is what lets tests assert
// that a faulted run recovers to a bit-identical partitioning.

// ErrInjectedFault marks a failure manufactured by FaultComm or
// FaultConfig.Dialer rather than observed on a real transport.
var ErrInjectedFault = errors.New("cluster: injected fault")

// FaultConfig is a deterministic fault schedule. Rates are per-operation
// probabilities in [0, 1], evaluated against the (Seed, rank, op-count)
// hash; caps bound the total injected faults so a schedule cannot starve a
// run forever.
type FaultConfig struct {
	Seed int64

	// KillRate is the per-op probability that the transport dies (every
	// subsequent op also fails, like a real dead connection). MaxKills caps
	// kills per wrapper; 0 means at most one.
	KillRate float64
	MaxKills int

	// KillAtOp, when non-zero, kills the transport exactly at that op count
	// (1-based), regardless of KillRate — precise single-shot schedules.
	KillAtOp uint64

	// DelayRate is the per-op probability of pausing MaxDelay-bounded time
	// before the op proceeds (deterministic duration, real sleep).
	DelayRate float64
	MaxDelay  time.Duration

	// DialFailRate is the per-attempt probability that Dialer fails an
	// attempt; MaxDialFails caps the total injected dial failures (default 0
	// = unlimited, bound attempts with RetryPolicy instead).
	DialFailRate float64
	MaxDialFails int
}

// roll evaluates a rate against a hash: true when the hash's low 30 bits,
// scaled to [0,1), fall under rate.
func roll(h uint64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	return float64(h&((1<<30)-1))/float64(1<<30) < rate
}

// FaultComm wraps a Comm with the FaultConfig schedule. Like any Comm it is
// owned by a single machine goroutine.
type FaultComm struct {
	Comm
	cfg   FaultConfig
	ops   uint64
	kills int
	dead  error // non-nil once the injected transport death happened

	// OnKill, when non-nil, runs once at the moment of an injected kill,
	// before the panic — the in-process recovery tests use it to fail every
	// rank's mailbox, mirroring the TCP router's whole-mesh teardown.
	OnKill func(err error)
}

// NewFault wraps c with the schedule cfg.
func NewFault(c Comm, cfg FaultConfig) *FaultComm {
	if cfg.KillRate > 0 && cfg.MaxKills <= 0 {
		cfg.MaxKills = 1
	}
	return &FaultComm{Comm: c, cfg: cfg}
}

// step advances the op counter and applies the schedule; it panics
// *ConnLostError* on an injected kill (and on every op after one).
func (f *FaultComm) step(tag Tag) {
	if f.dead != nil {
		panic(&ConnLostError{Tag: tag, Err: f.dead})
	}
	f.ops++
	h := dsa.SplitMix64(uint64(f.cfg.Seed) ^ uint64(f.Rank()+1)*0x9e3779b97f4a7c15 ^ f.ops*0xbf58476d1ce4e5b9)
	kill := f.cfg.KillAtOp != 0 && f.ops == f.cfg.KillAtOp
	if !kill && f.kills < f.cfg.MaxKills && roll(h, f.cfg.KillRate) {
		kill = true
	}
	if kill {
		f.kills++
		f.dead = fmt.Errorf("%w: rank %d killed at op %d (seed %d)", ErrInjectedFault, f.Rank(), f.ops, f.cfg.Seed)
		globalFT.injectedKills.Add(1)
		if f.OnKill != nil {
			f.OnKill(f.dead)
		}
		panic(&ConnLostError{Tag: tag, Err: f.dead})
	}
	if f.cfg.MaxDelay > 0 && roll(dsa.SplitMix64(h), f.cfg.DelayRate) {
		globalFT.injectedDelays.Add(1)
		time.Sleep(time.Duration(dsa.SplitMix64(h^0xd6e8feb8) % uint64(f.cfg.MaxDelay)))
	}
}

// Send implements Comm.
func (f *FaultComm) Send(to int, tag Tag, body Body) {
	f.step(tag)
	f.Comm.Send(to, tag, body)
}

// Recv implements Comm.
func (f *FaultComm) Recv(tag Tag) Message {
	f.step(tag)
	return f.Comm.Recv(tag)
}

// RecvN implements Comm.
func (f *FaultComm) RecvN(tag Tag, k int) []Message {
	f.step(tag)
	return f.Comm.RecvN(tag, k)
}

// Barrier implements Comm.
func (f *FaultComm) Barrier() {
	f.step(tagBarrier)
	f.Comm.Barrier()
}

// Ops returns the number of operations the schedule has evaluated.
func (f *FaultComm) Ops() uint64 { return f.ops }

// Dialer returns a DialOptions.Dial that injects deterministic dial
// failures for the given rank per the DialFailRate schedule, delegating
// successful attempts to a real net.Dialer.
func (cfg FaultConfig) Dialer(rank int) func(ctx context.Context, network, addr string) (net.Conn, error) {
	var attempt uint64
	var injected int
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		attempt++
		h := dsa.SplitMix64(uint64(cfg.Seed) ^ uint64(rank+1)*0x94d049bb133111eb ^ attempt*0x9e3779b97f4a7c15)
		if (cfg.MaxDialFails <= 0 || injected < cfg.MaxDialFails) && roll(h, cfg.DialFailRate) {
			injected++
			globalFT.injectedDialFails.Add(1)
			return nil, fmt.Errorf("%w: dial attempt %d of rank %d refused (seed %d)", ErrInjectedFault, attempt, rank, cfg.Seed)
		}
		var d net.Dialer
		return d.DialContext(ctx, network, addr)
	}
}
