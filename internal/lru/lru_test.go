package lru

import (
	"math/rand"
	"sync"
	"testing"
)

func TestStampMismatchIsMissAndDrop(t *testing.T) {
	c := New[string, uint64, string](10)
	c.Put("a", 1, "A1", 3)
	if v, ok, dropped := c.Get("a", 1); !ok || dropped || v != "A1" {
		t.Fatalf("Get at the put stamp = %q, %v, %v", v, ok, dropped)
	}
	// The miss hands back the value it dropped, for a caller that repairs
	// it; ok stays false, so a caller that reads only hits is unchanged.
	if v, ok, dropped := c.Get("a", 2); ok || !dropped || v != "A1" {
		t.Fatalf("Get at another stamp = %q, %v, %v; want a miss that drops and returns A1", v, ok, dropped)
	}
	if c.Len() != 0 || c.Cost() != 0 {
		t.Fatalf("stale entry still resident: len %d cost %d", c.Len(), c.Cost())
	}
	// Gone for the original stamp too, and a second miss drops nothing.
	if _, ok, dropped := c.Get("a", 1); ok || dropped {
		t.Fatalf("dropped entry came back: ok %v dropped %v", ok, dropped)
	}
	// A put that lost a race with the change is stored but unreachable
	// from the newer stamp.
	c.Put("b", 1, "stale", 1)
	if _, ok, _ := c.Get("b", 2); ok {
		t.Fatal("value stored at an older stamp returned at a newer one")
	}
}

func TestCostBudgetEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int, int](10)
	c.Put("a", 0, 1, 4)
	c.Put("b", 0, 2, 4)
	c.Get("a", 0) // b is now least recently used
	if n, total := c.Put("c", 0, 3, 4); n != 1 || total != 8 {
		t.Fatalf("Put evicted %d entries and left cost %d, want 1 and 8", n, total)
	}
	if _, ok, _ := c.Get("b", 0); ok {
		t.Fatal("least-recently-used entry survived the budget")
	}
	if _, ok, _ := c.Get("a", 0); !ok {
		t.Fatal("recently used entry evicted")
	}
	if c.Cost() != 8 || c.Len() != 2 {
		t.Fatalf("cost %d len %d, want 8 and 2", c.Cost(), c.Len())
	}
	// One put may push out several.
	if n, total := c.Put("d", 0, 4, 9); n != 2 || total != 9 {
		t.Fatalf("Put evicted %d entries and left cost %d, want 2 and 9", n, total)
	}
	// Replacing a key releases the old cost and counts as a removal.
	if n, total := c.Put("d", 1, 5, 2); n != 1 || total != 2 || c.Cost() != 2 || c.Len() != 1 {
		t.Fatalf("replace: evicted %d left %d, cost %d len %d, want 1, 2, 2, 1", n, total, c.Cost(), c.Len())
	}
}

func TestJustPutEntrySurvivesSmallerBudget(t *testing.T) {
	for _, budget := range []int64{0, 5} {
		c := New[int, int, string](budget)
		c.Put(1, 0, "big", 100)
		if v, ok, _ := c.Get(1, 0); !ok || v != "big" {
			t.Fatalf("budget %d: oversized entry not cached", budget)
		}
		// The next put takes its place: over budget by one entry at most.
		c.Put(2, 0, "big too", 100)
		if c.Len() != 1 || c.Cost() != 100 {
			t.Fatalf("budget %d: len %d cost %d after second oversized put", budget, c.Len(), c.Cost())
		}
		if _, ok, _ := c.Get(2, 0); !ok {
			t.Fatalf("budget %d: the entry just put was the one evicted", budget)
		}
	}
}

// TestSetBudgetEvictsToFit: shrinking the budget evicts least recently
// used entries until the rest fit, and a later Put is bounded by the new
// budget; growing it back evicts nothing.
func TestSetBudgetEvictsToFit(t *testing.T) {
	c := New[string, int, int](12)
	c.Put("a", 0, 1, 4)
	c.Put("b", 0, 2, 4)
	c.Put("c", 0, 3, 4)
	c.Get("a", 0) // b is now least recently used, then c
	if n, total := c.SetBudget(5); n != 2 || total != 4 {
		t.Fatalf("SetBudget(5) evicted %d and left %d, want 2 and 4", n, total)
	}
	if _, ok, _ := c.Get("a", 0); !ok {
		t.Fatal("the most recently used entry was evicted")
	}
	if n, total := c.Put("d", 0, 4, 4); n != 1 || total != 4 {
		t.Fatalf("Put under the new budget evicted %d and left %d, want 1 and 4", n, total)
	}
	if n, _ := c.SetBudget(100); n != 0 {
		t.Fatalf("growing the budget evicted %d", n)
	}
}

// TestGetAllIsGetPerKey: the batch lookup returns what one Get per key
// would — values at the held stamp, misses left alone, stale entries
// dropped and counted — and refreshes recency the same way.
func TestGetAllIsGetPerKey(t *testing.T) {
	c := New[string, int, string](12)
	c.Put("a", 1, "A", 4)
	c.Put("b", 1, "B", 4)
	c.Put("c", 1, "C", 4)
	values := []string{"", "", "untouched", ""}
	if dropped := c.GetAll([]string{"a", "b", "x", "c"}, []int{1, 2, 1, 1}, values); dropped != 1 {
		t.Fatalf("GetAll dropped %d entries, want 1 (b at another stamp)", dropped)
	}
	if want := []string{"A", "", "untouched", "C"}; values[0] != want[0] || values[1] != want[1] || values[2] != want[2] || values[3] != want[3] {
		t.Fatalf("GetAll values = %q, want %q", values, want)
	}
	if c.Len() != 2 || c.Cost() != 8 {
		t.Fatalf("len %d cost %d after GetAll, want 2 and 8", c.Len(), c.Cost())
	}
	// a was looked up before c, so a is now the least recently used.
	c.Put("d", 1, "D", 8)
	if _, ok, _ := c.Get("a", 1); ok {
		t.Fatal("GetAll left recency in the wrong order")
	}
}

func TestDeleteReleasesCost(t *testing.T) {
	c := New[string, int, int](100)
	c.Put("a", 0, 1, 30)
	c.Put("b", 0, 2, 20)
	if ok, total := c.Delete("a"); !ok || total != 20 || c.Cost() != 20 || c.Len() != 1 {
		t.Fatalf("after Delete: ok %v left %d, cost %d len %d", ok, total, c.Cost(), c.Len())
	}
	if ok, total := c.Delete("a"); ok || total != 20 {
		t.Fatalf("Delete of an absent key: ok %v left %d, want false and 20", ok, total)
	}
	if _, ok, _ := c.Get("a", 0); ok {
		t.Fatal("deleted entry returned")
	}
}

// TestConcurrentUse runs every method from several goroutines under
// -race and checks the invariants that must hold at rest.
func TestConcurrentUse(t *testing.T) {
	const budget, keys = 64, 32
	c := New[int, int, int](budget)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				k, stamp := rng.Intn(keys), rng.Intn(3)
				switch rng.Intn(4) {
				case 0:
					c.Put(k, stamp, k*10+stamp, int64(1+rng.Intn(8)))
				case 1:
					c.Delete(k)
				default:
					if v, ok, _ := c.Get(k, stamp); ok && v != k*10+stamp {
						t.Errorf("Get(%d, %d) = %d: another key's or stamp's value", k, stamp, v)
					}
				}
				if cost := c.Cost(); cost > budget+8 {
					t.Errorf("cost %d exceeds budget %d by more than one entry", cost, budget)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	var sum int64
	n := 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		sum += el.Value.(*entry[int, int, int]).cost
		n++
	}
	if sum != c.Cost() || n != c.Len() || n != len(c.items) || sum > budget {
		t.Fatalf("at rest: list cost %d / Cost %d, list len %d / Len %d / map %d, budget %d",
			sum, c.Cost(), n, c.Len(), len(c.items), budget)
	}
}
