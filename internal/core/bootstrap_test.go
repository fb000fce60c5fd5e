package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestRotateSeedsOrderAndBackoff: within a pass every seed is tried back
// to back (a dead seed must not delay a live one), only a fully failed
// pass sleeps, and the sleep doubles from seedBackoff.
func TestRotateSeedsOrderAndBackoff(t *testing.T) {
	var tried []string
	var slept []time.Duration
	cfg := BootstrapConfig{
		Seeds: []string{"a", "b", "c"},
		sleep: func(d time.Duration) { slept = append(slept, d) },
	}
	err := rotateSeeds(cfg, func(addr string) error {
		tried = append(tried, addr)
		// c comes up on the third pass.
		if addr == "c" && len(slept) >= 2 {
			return nil
		}
		return fmt.Errorf("dial %s: refused", addr)
	})
	if err != nil {
		t.Fatalf("rotateSeeds: %v", err)
	}
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	if strings.Join(tried, ",") != strings.Join(want, ",") {
		t.Errorf("tried %v, want %v", tried, want)
	}
	if len(slept) != 2 || slept[0] != seedBackoff || slept[1] != 2*seedBackoff {
		t.Errorf("slept %v, want [%v %v]", slept, seedBackoff, 2*seedBackoff)
	}
}

// TestRotateSeedsBackoffCap: seedPasses failed passes sleep between them,
// doubling up to the seedBackoffMax cap, then give up.
func TestRotateSeedsBackoffCap(t *testing.T) {
	var slept []time.Duration
	cfg := BootstrapConfig{
		Seeds: []string{"a"},
		sleep: func(d time.Duration) { slept = append(slept, d) },
	}
	boom := errors.New("down")
	err := rotateSeeds(cfg, func(string) error { return boom })
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("want exhaustion error wrapping the last failure, got %v", err)
	}
	want := []time.Duration{250, 500, 1000, 2000, 4000, 5000, 5000}
	for i := range want {
		want[i] *= time.Millisecond
	}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("slept %v, want %v", slept, want)
		}
	}
}

func TestRotateSeedsFirstSeedWinsNoSleep(t *testing.T) {
	calls := 0
	cfg := BootstrapConfig{
		Seeds: []string{"a", "b"},
		sleep: func(time.Duration) { t.Fatal("slept on a successful first pass") },
	}
	if err := rotateSeeds(cfg, func(string) error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}

func TestRotateSeedsEmptyList(t *testing.T) {
	err := rotateSeeds(BootstrapConfig{}, func(string) error { return nil })
	if err == nil {
		t.Fatal("want error for empty seed list")
	}
}
