package core

import (
	"errors"
	"fmt"
	"time"
)

// The seed rotation is sized for a cluster whose seeds may still be
// starting up: seedPasses full rotations, with a backoff after each failed
// pass that doubles from seedBackoff and is capped at seedBackoffMax —
// ≈ 18 s worst case. It gives up only when every seed has failed on every
// pass.
const (
	seedPasses     = 8
	seedBackoff    = 250 * time.Millisecond
	seedBackoffMax = 5 * time.Second
)

// BootstrapConfig names the seeds for JoinSeeds' rotation.
type BootstrapConfig struct {
	// Seeds are the candidate member addresses, tried in order within
	// each pass.
	Seeds []string
	// sleep replaces time.Sleep in tests.
	sleep func(time.Duration)
}

// JoinSeeds bootstraps into an existing community via any of the given
// member addresses, rotating through the list with capped exponential
// backoff between passes. The first seed that answers wins; an error is
// returned only when every seed failed on every pass.
func (p *Peer) JoinSeeds(cfg BootstrapConfig) error {
	return rotateSeeds(cfg, p.Join)
}

// rotateSeeds runs the seed-rotation policy over an arbitrary join
// attempt (factored out so the policy is unit-testable without sockets).
// Within one pass every seed is tried back to back — a dead seed must not
// delay a live one behind it — and only a fully failed pass sleeps.
func rotateSeeds(cfg BootstrapConfig, try func(addr string) error) error {
	if len(cfg.Seeds) == 0 {
		return errors.New("core: no seed addresses")
	}
	sleep := cfg.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	var lastErr error
	delay := seedBackoff
	for pass := 0; pass < seedPasses; pass++ {
		if pass > 0 {
			sleep(delay)
			delay = min(2*delay, seedBackoffMax)
		}
		for _, addr := range cfg.Seeds {
			if err := try(addr); err != nil {
				lastErr = err
				continue
			}
			return nil
		}
	}
	return fmt.Errorf("core: all %d seeds exhausted after %d passes: %w",
		len(cfg.Seeds), seedPasses, lastErr)
}
