package replica

import (
	"testing"
	"time"

	"planetp/internal/store"
)

// fakeClock is a settable Now() source.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func newTestManager(t *testing.T, clk *fakeClock, mutate func(*Config)) *Manager {
	t.Helper()
	cfg := Config{Factor: 3, Budget: 1 << 20, HotScore: 2, HalfLife: time.Minute, Now: clk.now}
	if mutate != nil {
		mutate(&cfg)
	}
	return NewManager(cfg)
}

// put adopts e the way core does — plan, (log), apply in order, seed —
// and returns the keys the budget evicted.
func put(t *testing.T, m *Manager, e Entry, seed float64) (evicted []string, err error) {
	t.Helper()
	ops, err := m.PlanPut(e)
	if err != nil {
		return nil, err
	}
	for _, op := range ops {
		dropped, _, err := m.Apply(op)
		if err != nil {
			t.Fatal(err)
		}
		if op.Kind == store.OpReplicaDrop {
			evicted = append(evicted, dropped.Key)
		}
	}
	if len(ops) > 0 {
		m.Seed(e.Key, seed)
	}
	return evicted, nil
}

// purge applies one drop record and reports whether the key was held.
func purge(t *testing.T, m *Manager, key string, epoch uint32, tomb bool) bool {
	t.Helper()
	_, held, err := m.Apply(DropOp(key, epoch, tomb))
	if err != nil {
		t.Fatal(err)
	}
	return held
}

func TestPopularityDecayDeterministic(t *testing.T) {
	clk := &fakeClock{}
	p := NewPopularity(time.Minute)
	p.Hit("a", 0)
	p.Hit("a", 0)
	if s := p.Score("a", 0); s != 2 {
		t.Fatalf("score after 2 hits = %v", s)
	}
	// One half-life halves the mass.
	if s := p.Score("a", time.Minute); s < 0.99 || s > 1.01 {
		t.Fatalf("score after one half-life = %v", s)
	}
	// Two managers fed the same schedule agree exactly.
	q := NewPopularity(time.Minute)
	q.Hit("a", 0)
	q.Hit("a", 0)
	if p.Score("a", 5*time.Minute) != q.Score("a", 5*time.Minute) {
		t.Fatal("identical schedules diverged")
	}
	_ = clk
}

func TestTargetReplicasGrowsWithPopularityAndCaps(t *testing.T) {
	m := newTestManager(t, &fakeClock{}, nil)
	cases := []struct {
		score float64
		want  int
	}{
		{0, 0}, {1.9, 0}, {2, 1}, {3.9, 1}, {4, 2}, {100, 2},
	}
	for _, c := range cases {
		if got := m.TargetReplicas(c.score); got != c.want {
			t.Errorf("TargetReplicas(%v) = %d want %d", c.score, got, c.want)
		}
	}
	// Factor 1 = no replication at any popularity.
	m1 := newTestManager(t, &fakeClock{}, func(c *Config) { c.Factor = 1 })
	if m1.TargetReplicas(100) != 0 {
		t.Fatal("factor 1 must disable replication")
	}
}

func TestPutGetPurgeTombstone(t *testing.T) {
	clk := &fakeClock{}
	m := newTestManager(t, clk, nil)
	e := Entry{Key: "k1", Origin: 3, Epoch: 1, XML: "<doc>hello</doc>"}
	if _, err := put(t, m, e, 2); err != nil {
		t.Fatal(err)
	}
	got, ok := m.Get("k1")
	if !ok || got != e {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if m.Score("k1") < 2 {
		t.Fatal("adoption did not seed popularity")
	}
	// Purge with a death certificate at epoch 2: re-adoption at <= 2 is
	// refused, at 3 accepted.
	if !purge(t, m, "k1", 2, true) {
		t.Fatal("purge of a held replica reported it not held")
	}
	if m.Has("k1") {
		t.Fatal("purged replica still held")
	}
	if m.Accepts("k1", 2) {
		t.Fatal("tombstoned epoch re-accepted")
	}
	if _, err := put(t, m, Entry{Key: "k1", Origin: 3, Epoch: 2, XML: "x"}, 2); err != nil {
		t.Fatal(err)
	}
	if m.Has("k1") {
		t.Fatal("tombstoned Put was applied")
	}
	if !m.Accepts("k1", 3) {
		t.Fatal("higher-epoch offer refused")
	}
	if _, err := put(t, m, Entry{Key: "k1", Origin: 3, Epoch: 3, XML: "x"}, 2); err != nil {
		t.Fatal(err)
	}
	if !m.Has("k1") {
		t.Fatal("higher-epoch Put not applied")
	}
}

func TestBudgetEvictsLeastPopular(t *testing.T) {
	clk := &fakeClock{}
	m := newTestManager(t, clk, func(c *Config) { c.Budget = 100 })
	body := make([]byte, 40)
	for i := range body {
		body[i] = 'x'
	}
	if _, err := put(t, m, Entry{Key: "cold", Origin: 1, Epoch: 1, XML: string(body)}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := put(t, m, Entry{Key: "hot", Origin: 1, Epoch: 1, XML: string(body)}, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		m.Hit("hot")
	}
	// A third 40-byte body exceeds the 100-byte budget; the least
	// popular replica (cold) must be evicted, not hot.
	evicted, err := put(t, m, Entry{Key: "new", Origin: 2, Epoch: 1, XML: string(body)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != "cold" {
		t.Fatalf("evicted = %+v", evicted)
	}
	if !m.Has("hot") || !m.Has("new") || m.Has("cold") {
		t.Fatal("wrong survivor set")
	}
	if m.Bytes() > 100 {
		t.Fatalf("over budget: %d", m.Bytes())
	}
	// A single body larger than the whole budget is refused outright.
	if _, err := put(t, m, Entry{Key: "huge", Origin: 2, Epoch: 1, XML: string(make([]byte, 101))}, 2); err != ErrOverBudget {
		t.Fatalf("oversized Put err = %v", err)
	}
}

func TestReleaseCandidatesByDecay(t *testing.T) {
	clk := &fakeClock{}
	m := newTestManager(t, clk, func(c *Config) { c.HalfLife = time.Minute })
	if _, err := put(t, m, Entry{Key: "a", Origin: 1, Epoch: 1, XML: "x"}, 2); err != nil {
		t.Fatal(err)
	}
	if len(m.ReleaseCandidates()) != 0 {
		t.Fatal("fresh adoption already GC-eligible")
	}
	// After two half-lives the seed score of 2 decays to 0.5 < the
	// release threshold (HotScore/2 = 1).
	clk.t = 2 * time.Minute
	rc := m.ReleaseCandidates()
	if len(rc) != 1 || rc[0].Key != "a" {
		t.Fatalf("ReleaseCandidates = %+v", rc)
	}
	// A fetch refreshes popularity and rescues it.
	m.Hit("a")
	m.Hit("a")
	if len(m.ReleaseCandidates()) != 0 {
		t.Fatal("refreshed replica still GC-eligible")
	}
}

func TestOpEncodingRoundTrip(t *testing.T) {
	e := Entry{Key: "abc123", Origin: -7, Epoch: 42, XML: "<doc>\nmulti line\n</doc>"}
	got, err := decodePutOp(PutOp(e).Data)
	if err != nil || got != e {
		t.Fatalf("put round trip = %+v, %v", got, err)
	}
	key, epoch, tomb, err := decodeDropOp(DropOp("k", 9, true).Data)
	if err != nil || key != "k" || epoch != 9 || !tomb {
		t.Fatalf("drop round trip = %q %d %v %v", key, epoch, tomb, err)
	}
	if _, _, tomb, _ := decodeDropOp(DropOp("k", 9, false).Data); tomb {
		t.Fatal("tomb flag not preserved")
	}
	m := newTestManager(t, &fakeClock{}, nil)
	for _, op := range []store.Op{
		{Kind: store.OpReplicaPut, Data: "garbage"},
		{Kind: store.OpReplicaDrop, Data: "1 x"},
		{Kind: store.OpPublish, Data: PutOp(e).Data},
	} {
		if _, _, err := m.Apply(op); err == nil {
			t.Fatalf("Apply accepted %v", op)
		}
	}
}

// Keys arrive off the wire; one the record header cannot carry back must
// be refused at planning, before anything is logged.
func TestPlanRefusesUnloggableKeys(t *testing.T) {
	m := newTestManager(t, &fakeClock{}, nil)
	for _, key := range []string{"", "two words", "line\nbreak", "tab\tbed"} {
		if ops, err := m.PlanPut(Entry{Key: key, Origin: 1, Epoch: 1, XML: "<a/>"}); err != ErrBadKey || ops != nil {
			t.Errorf("PlanPut(%q) = %v, %v", key, ops, err)
		}
		if ops, err := m.PlanDrop(key, 1, true); err != ErrBadKey || ops != nil {
			t.Errorf("PlanDrop(%q) = %v, %v", key, ops, err)
		}
	}
	if ops, err := m.PlanDrop("unheld", 1, false); err != nil || ops != nil {
		t.Errorf("PlanDrop of an unheld key without a tombstone = %v, %v, want nothing to log", ops, err)
	}
	if ops, err := m.PlanDrop("unheld", 1, true); err != nil || len(ops) != 1 {
		t.Errorf("PlanDrop with a tombstone = %v, %v, want one record", ops, err)
	}
}

// TestReplayRestoresLoggedSet logs a manager's records to a real
// (in-memory) store through adoptions and a purge-with-tombstone, reopens,
// and asserts that replaying the log — and then a State/Restore round
// trip, the snapshot path — rebuilds the replica set and tombstones
// exactly.
func TestReplayRestoresLoggedSet(t *testing.T) {
	clk := &fakeClock{}
	fs := store.NewMemFS()
	st, _, err := store.Open(store.Options{Dir: "data", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, clk, nil)
	logged := func(ops []store.Op, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.AppendBatch(ops); err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if _, _, err := m.Apply(op); err != nil {
				t.Fatal(err)
			}
		}
	}
	logged(m.PlanPut(Entry{Key: "a", Origin: 1, Epoch: 1, XML: "<a/>"}))
	logged(m.PlanPut(Entry{Key: "b", Origin: 2, Epoch: 5, XML: "<b/>"}))
	logged([]store.Op{DropOp("a", 3, true)}, nil)
	st.Close()

	st, rec, err := store.Open(store.Options{Dir: "data", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m2 := newTestManager(t, clk, nil)
	for _, op := range rec.Ops {
		if _, _, err := m2.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	m3 := newTestManager(t, clk, nil)
	m3.Restore(m2.State())
	for name, r := range map[string]*Manager{"replayed": m2, "restored": m3} {
		if got := r.Entries(); len(got) != 1 || got[0].Key != "b" || got[0].Epoch != 5 || r.Bytes() != 4 {
			t.Fatalf("%s set = %+v (%d bytes)", name, got, r.Bytes())
		}
		if !r.Tombstoned("a", 3) || r.Tombstoned("a", 4) {
			t.Fatalf("%s manager lost the tombstone", name)
		}
	}
}
