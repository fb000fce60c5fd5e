package gossipsim

import (
	"reflect"
	"testing"

	"planetp/internal/chash"
	"planetp/internal/directory"
)

// The model's pre-storm placement: every document holds at its owner,
// hot documents add ring successors, and placement is identical to what
// any converged peer would compute (same ring derivation).
func TestReplicaModelPlacement(t *testing.T) {
	m := newReplicaModel(16, 160, 3)
	if m.hotDocs != 16 {
		t.Fatalf("hot decile = %d, want 16", m.hotDocs)
	}
	for i := range m.keys {
		if !m.holders[i][m.owners[i]] {
			t.Fatalf("doc %d not held by its owner %d", i, m.owners[i])
		}
		want := 1 + m.extra[i]
		if got := len(m.holders[i]); got != want {
			t.Fatalf("doc %d has %d holders, want %d", i, got, want)
		}
		if i < m.hotDocs && m.extra[i] != 2 {
			t.Fatalf("hot doc %d has %d extras, want full k-1=2", i, m.extra[i])
		}
	}
	// The Zipf tail decays to owner-only copies.
	last := len(m.keys) - 1
	if m.extra[last] != 0 {
		t.Fatalf("coldest doc has %d extras, want 0", m.extra[last])
	}
}

func TestReplicationMassDepartureFavorsReplicas(t *testing.T) {
	spec := ReplicationScenarios(16)[0]
	if spec.Name != "mass-departure" {
		t.Fatalf("scenario order changed: %s", spec.Name)
	}
	r1 := Replication(STORM, spec, 160, 1, 7)
	r3 := Replication(STORM, spec, 160, 3, 7)

	if r1.FinalHotAvailability >= 1 {
		t.Fatalf("k=1 hot availability %.4f survived a 25%% departure unscathed", r1.FinalHotAvailability)
	}
	if r3.FinalHotAvailability <= r1.FinalHotAvailability {
		t.Fatalf("k=3 hot availability %.4f not better than k=1's %.4f",
			r3.FinalHotAvailability, r1.FinalHotAvailability)
	}
	if r1.Repairs != 0 {
		t.Fatalf("k=1 ran %d repairs; nothing is replicated at k=1", r1.Repairs)
	}
	if r1.LostDocs == 0 {
		t.Fatalf("k=1 lost no docs under a 25%% departure")
	}
	if r3.LostDocs >= r1.LostDocs {
		t.Fatalf("k=3 lost %d docs, k=1 lost %d — replication did not help", r3.LostDocs, r1.LostDocs)
	}
}

// A partition dips availability for the cut-off half and heals back to
// exactly 1: no holder departs, so nothing is ever lost.
func TestReplicationPartitionHealsCompletely(t *testing.T) {
	spec := ReplicationScenarios(16)[1]
	if spec.Name != "partition-heal" {
		t.Fatalf("scenario order changed: %s", spec.Name)
	}
	r := Replication(STORM, spec, 160, 3, 7)
	// Owner-only (cold) documents whose owner landed on the far side must
	// go dark while the split is in force.
	dipped := false
	for _, sm := range r.Samples {
		if sm.Availability < 1 {
			dipped = true
			break
		}
	}
	if !dipped {
		t.Fatalf("partition never dipped availability")
	}
	if r.FinalHotAvailability != 1 || r.FinalAvailability != 1 {
		t.Fatalf("heal did not restore availability: hot %.4f all %.4f",
			r.FinalHotAvailability, r.FinalAvailability)
	}
	if r.LostDocs != 0 {
		t.Fatalf("partition lost %d docs; no holder ever departed", r.LostDocs)
	}
}

// Equal inputs reproduce every sample: a curve change is a model change.
func TestReplicationDeterministic(t *testing.T) {
	spec := ReplicationScenarios(16)[0]
	a := Replication(STORM, spec, 160, 3, 7)
	b := Replication(STORM, spec, 160, 3, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs diverged")
	}
}

// The placement core and the repair model share: owner excluded, distinct
// successors, bounded count.
func TestRingReplicasExcludesOrigin(t *testing.T) {
	ids := make([]directory.PeerID, 8)
	for i := range ids {
		ids[i] = directory.PeerID(i)
	}
	ring := chash.PeerRing(ids)
	for i := 0; i < 32; i++ {
		key := "doc-key-" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		for origin := directory.PeerID(0); origin < 8; origin++ {
			got := chash.ReplicaHolders(ring, key, origin, 3)
			if len(got) != 3 {
				t.Fatalf("key %q origin %d: %d replicas, want 3", key, origin, len(got))
			}
			seen := map[directory.PeerID]bool{origin: true}
			for _, h := range got {
				if seen[h] {
					t.Fatalf("key %q origin %d: duplicate or origin holder %d", key, origin, h)
				}
				seen[h] = true
			}
		}
	}
}
