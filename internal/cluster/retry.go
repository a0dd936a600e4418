package cluster

import (
	"context"
	"fmt"
	"time"

	"github.com/distributedne/dne/internal/dsa"
)

// RetryPolicy shapes DialTCPRetry's capped exponential backoff. The zero
// value gives 10 attempts starting at 50ms, doubling to a 2s cap, with
// deterministic jitter derived from Seed (so two ranks with different seeds
// do not dial in lock-step, yet a run is reproducible).
type RetryPolicy struct {
	MaxAttempts int           // total dial attempts; <=0 means 10
	BaseDelay   time.Duration // first backoff; <=0 means 50ms
	MaxDelay    time.Duration // backoff cap; <=0 means 2s
	Seed        int64         // jitter seed
	// OnRetry, when non-nil, observes each failed attempt before its backoff.
	OnRetry func(attempt int, err error)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 10
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// backoff returns the pause before attempt i (0-based): BaseDelay·2^i capped
// at MaxDelay, plus deterministic jitter in [0, delay/2).
func (p RetryPolicy) backoff(i int) time.Duration {
	d := p.BaseDelay
	for k := 0; k < i && d < p.MaxDelay; k++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	if half := int64(d / 2); half > 0 {
		d += time.Duration(dsa.SplitMix64(uint64(p.Seed)^uint64(i)*0x9e3779b97f4a7c15) % uint64(half))
	}
	return d
}

// DialTCPRetry dials the router with capped exponential backoff + jitter:
// transient dial failures (the router is restarting, the rejoin window has
// not opened yet, an injected fault) are retried up to pol.MaxAttempts times
// before the last error is returned. ctx bounds the whole sequence and is
// also the node's watchdog context, exactly as in DialTCPContext.
func DialTCPRetry(ctx context.Context, addr string, rank, size int, pol RetryPolicy, o DialOptions) (*TCPNode, error) {
	pol = pol.withDefaults()
	var lastErr error
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			globalFT.dialRetries.Add(1)
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("cluster: dial retry: %w (last error: %v)", ctx.Err(), lastErr)
			case <-time.After(pol.backoff(attempt - 1)):
			}
		}
		n, err := DialTCPOpts(ctx, addr, rank, size, o)
		if err == nil {
			return n, nil
		}
		lastErr = err
		if pol.OnRetry != nil {
			pol.OnRetry(attempt, err)
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("cluster: dial retry: %w (last error: %v)", ctx.Err(), lastErr)
		}
	}
	return nil, fmt.Errorf("cluster: dial retry: %d attempts exhausted: %w", pol.MaxAttempts, lastErr)
}
