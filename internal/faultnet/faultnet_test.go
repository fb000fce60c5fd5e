package faultnet

import (
	"errors"
	"math"
	"testing"
	"time"

	"planetp/internal/directory"
	"planetp/internal/metrics"
)

// replay runs the same synthetic traffic through a fresh plan.
func replay(cfg Config, msgs int) (*Plan, []Fate) {
	p := New(cfg, nil)
	fates := make([]Fate, 0, msgs)
	for i := 0; i < msgs; i++ {
		from := directory.PeerID(i % 7)
		to := directory.PeerID((i * 3) % 11)
		now := time.Duration(i) * time.Second
		fates = append(fates, p.Fate(now, from, to))
	}
	return p, fates
}

func TestSameSeedSameSchedule(t *testing.T) {
	cfg := Config{Seed: 42, Drop: 0.25, Dup: 0.1, Delay: 0.2, DialFail: 0.05}
	p1, f1 := replay(cfg, 5000)
	p2, f2 := replay(cfg, 5000)
	if p1.ScheduleHash() != p2.ScheduleHash() {
		t.Fatalf("schedule hashes differ: %x vs %x", p1.ScheduleHash(), p2.ScheduleHash())
	}
	if p1.Counts() != p2.Counts() {
		t.Fatalf("counts differ: %+v vs %+v", p1.Counts(), p2.Counts())
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("fate %d differs: %+v vs %+v", i, f1[i], f2[i])
		}
	}
}

func TestDifferentSeedDifferentSchedule(t *testing.T) {
	cfg := Config{Seed: 1, Drop: 0.25}
	p1, _ := replay(cfg, 2000)
	cfg.Seed = 2
	p2, _ := replay(cfg, 2000)
	if p1.ScheduleHash() == p2.ScheduleHash() {
		t.Fatal("different seeds produced identical schedules")
	}
}

// Determinism must hold per-pair regardless of interleaving with other
// pairs: the pair (1,2)'s fates depend only on its own message ordinals.
func TestPairStreamsIndependent(t *testing.T) {
	cfg := Config{Seed: 7, Drop: 0.3, Delay: 0.3}
	// Run A: only pair (1,2).
	a := New(cfg, nil)
	var fa []Fate
	for i := 0; i < 100; i++ {
		fa = append(fa, a.Fate(0, 1, 2))
	}
	// Run B: pair (1,2) interleaved with unrelated traffic.
	b := New(cfg, nil)
	var fb []Fate
	for i := 0; i < 100; i++ {
		b.Fate(0, 3, 4)
		fb = append(fb, b.Fate(0, 1, 2))
		b.Fate(0, 5, 6)
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("pair stream perturbed by unrelated traffic at %d: %+v vs %+v", i, fa[i], fb[i])
		}
	}
}

func TestRatesApproximateConfig(t *testing.T) {
	cfg := Config{Seed: 3, Drop: 0.25, Dup: 0.10, Delay: 0.40, DialFail: 0.05}
	p, _ := replay(cfg, 20000)
	c := p.Counts()
	check := func(name string, got int64, want float64) {
		frac := float64(got) / float64(c.Messages)
		if math.Abs(frac-want) > 0.02 {
			t.Errorf("%s rate = %.3f, want ~%.2f", name, frac, want)
		}
	}
	// Drop/delay/dup rates are measured among non-failed sends.
	nonFailed := c.Messages - c.DialFails
	_ = nonFailed
	check("dial-fail", c.DialFails, 0.05)
	check("drop", c.Drops, 0.25*0.95)
	check("delay", c.Delays, 0.40*0.95)
	check("dup", c.Dups, 0.10*0.95)
}

// Every injected delay and duplicate offset falls in the 100 ms .. 2 s
// window, and the draws spread across it.
func TestDelayWithinBounds(t *testing.T) {
	p := New(Config{Seed: 9, Delay: 1.0, Dup: 1.0}, nil)
	lo, hi := delayMax, delayMin
	for i := 0; i < 1000; i++ {
		f := p.Fate(0, 0, 1)
		for _, d := range []time.Duration{f.Delay, f.DupDelay} {
			if d < 100*time.Millisecond || d > 2*time.Second {
				t.Fatalf("delay %v outside [100ms, 2s]", d)
			}
			lo, hi = min(lo, d), max(hi, d)
		}
	}
	if lo > 200*time.Millisecond || hi < 1900*time.Millisecond {
		t.Fatalf("1000 draws span only [%v, %v]", lo, hi)
	}
}

func TestPartitionSplitAndHeal(t *testing.T) {
	p := New(Config{Seed: 1, Partitions: []Partition{{
		Name: "cut", At: 10 * time.Second, Heal: 20 * time.Second,
		Side: SplitHalves(10),
	}}}, nil)

	// Before the split: clean.
	if f := p.Fate(5*time.Second, 0, 9); f.Partitioned {
		t.Fatal("partitioned before At")
	}
	// During: cross-side blocked, same-side clean.
	if fate := p.Fate(15*time.Second, 0, 9); !fate.Partitioned || !fate.Failed() {
		t.Fatalf("cross-side send not blocked during partition: %+v", fate)
	}
	if fate := p.Fate(15*time.Second, 0, 4); fate.Partitioned {
		t.Fatal("same-side send blocked")
	}
	if fate := p.Fate(15*time.Second, 5, 9); fate.Partitioned {
		t.Fatal("same-side (upper) send blocked")
	}
	// After heal: clean again.
	if fate := p.Fate(25*time.Second, 0, 9); fate.Partitioned {
		t.Fatal("partitioned after heal")
	}
}

func TestPermanentPartition(t *testing.T) {
	p := New(Config{Partitions: []Partition{{
		Name: "forever", At: time.Second, Heal: 0, Side: SplitHalves(4),
	}}}, nil)
	if fate := p.Fate(time.Hour, 0, 3); !fate.Partitioned {
		t.Fatal("Heal <= At should mean the partition never heals")
	}
}

func TestMetricsWired(t *testing.T) {
	reg := metrics.NewRegistry()
	p := New(Config{Seed: 5, Drop: 1.0}, reg)
	p.Fate(0, 0, 1)
	if got := reg.Snapshot().Get("faultnet_drops_total"); got != 1 {
		t.Fatalf("faultnet_drops_total = %d, want 1", got)
	}
}

func TestCleanPlanPassesThrough(t *testing.T) {
	p := New(Config{Seed: 1}, nil)
	for i := 0; i < 100; i++ {
		if fate := p.Fate(0, 0, 1); fate != (Fate{}) {
			t.Fatalf("clean plan injected a fault: %+v", fate)
		}
	}
}

func TestConnKillDeterministicAndCounted(t *testing.T) {
	cfg := Config{Seed: 13, ConnKill: 0.3}
	p1, f1 := replay(cfg, 4000)
	p2, f2 := replay(cfg, 4000)
	if p1.ScheduleHash() != p2.ScheduleHash() {
		t.Fatalf("schedule hashes differ: %x vs %x", p1.ScheduleHash(), p2.ScheduleHash())
	}
	kills := int64(0)
	for i := range f1 {
		if f1[i].ConnKill != f2[i].ConnKill {
			t.Fatalf("fate %d differs", i)
		}
		if f1[i].ConnKill {
			kills++
		}
	}
	got := p1.Counts().ConnKills
	if got != kills || got == 0 {
		t.Fatalf("ConnKills = %d, want %d (> 0)", got, kills)
	}
	rate := float64(kills) / 4000
	if math.Abs(rate-0.3) > 0.05 {
		t.Fatalf("kill rate %.3f far from configured 0.3", rate)
	}
	reg := metrics.NewRegistry()
	pm := New(cfg, reg)
	for i := 0; i < 100; i++ {
		pm.Fate(0, 1, 2)
	}
	if c := reg.Snapshot().Get("faultnet_conn_kills_total"); c != pm.Counts().ConnKills {
		t.Fatalf("metric %d != counts %d", c, pm.Counts().ConnKills)
	}
}

// SendFate adapts fates to the transport's per-send hook: dial failures
// and partitions surface as errors, drop/delay/kill as verdict fields.
func TestSendFateMapsFates(t *testing.T) {
	p := New(Config{Seed: 3, DialFail: 1}, nil)
	hook := p.SendFate(1, func() time.Duration { return 0 })
	if err, _, _, _ := hook(2); !errors.Is(err, ErrInjected) {
		t.Fatalf("dial-fail fate should map to ErrInjected, got %v", err)
	}
	p = New(Config{Partitions: []Partition{{At: 0, Heal: 0, Side: SplitHalves(4)}}}, nil)
	hook = p.SendFate(1, func() time.Duration { return 0 })
	if err, _, _, _ := hook(2); !errors.Is(err, ErrInjected) {
		t.Fatalf("partitioned fate should map to ErrInjected, got %v", err)
	}
	p = New(Config{Seed: 3, ConnKill: 1}, nil)
	hook = p.SendFate(1, func() time.Duration { return 0 })
	err, drop, delay, kill := hook(2)
	if err != nil || drop || delay != 0 || !kill {
		t.Fatalf("ConnKill fate mapped wrong: %v %v %v %v", err, drop, delay, kill)
	}
	p = New(Config{Seed: 3, Drop: 1}, nil)
	hook = p.SendFate(1, func() time.Duration { return 0 })
	if err, drop, _, _ := hook(2); err != nil || !drop {
		t.Fatalf("Drop fate mapped wrong: %v %v", err, drop)
	}
}
