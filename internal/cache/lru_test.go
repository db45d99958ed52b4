package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"dssp/internal/sqlparse"
)

func TestCapacityEvictsLRU(t *testing.T) {
	c, codec, app := testStack(t, nil, Options{Capacity: 3})
	q := app.Query("Q2")
	for i := int64(1); i <= 5; i++ {
		c.Store(seal(t, codec, q, sqlparse.IntVal(i)), codec.SealResult(q, result(i)), false)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	st := c.Stats()
	if st.Evictions != 2 {
		t.Errorf("Evictions = %d", st.Evictions)
	}
	// The two oldest (1, 2) are gone; 3..5 remain.
	for i := int64(1); i <= 5; i++ {
		_, hit := c.Lookup(seal(t, codec, q, sqlparse.IntVal(i)))
		want := i >= 3
		if hit != want {
			t.Errorf("entry %d: hit=%v want %v", i, hit, want)
		}
	}
}

func TestLookupRefreshesRecency(t *testing.T) {
	c, codec, app := testStack(t, nil, Options{Capacity: 2})
	q := app.Query("Q2")
	c.Store(seal(t, codec, q, sqlparse.IntVal(1)), codec.SealResult(q, result(1)), false)
	c.Store(seal(t, codec, q, sqlparse.IntVal(2)), codec.SealResult(q, result(2)), false)
	// Touch 1 so 2 becomes the LRU victim.
	if _, hit := c.Lookup(seal(t, codec, q, sqlparse.IntVal(1))); !hit {
		t.Fatal("entry 1 missing")
	}
	c.Store(seal(t, codec, q, sqlparse.IntVal(3)), codec.SealResult(q, result(3)), false)
	if _, hit := c.Lookup(seal(t, codec, q, sqlparse.IntVal(1))); !hit {
		t.Error("recently used entry evicted")
	}
	if _, hit := c.Lookup(seal(t, codec, q, sqlparse.IntVal(2))); hit {
		t.Error("LRU entry survived")
	}
}

func TestInvalidationUnlinksLRU(t *testing.T) {
	c, codec, app := testStack(t, nil, Options{Capacity: 10})
	q2 := app.Query("Q2")
	for i := int64(1); i <= 4; i++ {
		c.Store(seal(t, codec, q2, sqlparse.IntVal(i)), codec.SealResult(q2, result(i)), false)
	}
	su, _ := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(2)})
	if dropped := onUpdate(c, su); dropped != 1 {
		t.Fatalf("dropped = %d", dropped)
	}
	if c.lru.len != c.Len() {
		t.Fatalf("LRU length %d != cache length %d", c.lru.len, c.Len())
	}
	// Filling far past capacity still converges to exactly Capacity.
	for i := int64(10); i < 40; i++ {
		c.Store(seal(t, codec, q2, sqlparse.IntVal(i)), codec.SealResult(q2, result(i)), false)
	}
	if c.Len() != 10 || c.lru.len != 10 {
		t.Errorf("len=%d lru=%d, want 10", c.Len(), c.lru.len)
	}
}

func TestStoreOverwriteKeepsLRUConsistent(t *testing.T) {
	c, codec, app := testStack(t, nil, Options{Capacity: 4})
	q := app.Query("Q2")
	for i := 0; i < 10; i++ {
		// Re-store the same key repeatedly; the list must not grow.
		c.Store(seal(t, codec, q, sqlparse.IntVal(7)), codec.SealResult(q, result(int64(i))), false)
	}
	if c.Len() != 1 || c.lru.len != 1 {
		t.Errorf("len=%d lru=%d after overwrites", c.Len(), c.lru.len)
	}
}

func TestLRURandomizedConsistency(t *testing.T) {
	c, codec, app := testStack(t, nil, Options{Capacity: 8})
	q2 := app.Query("Q2")
	q1 := app.Query("Q1")
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 3000; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			c.Store(seal(t, codec, q2, sqlparse.IntVal(int64(rng.Intn(20)))),
				codec.SealResult(q2, result(1)), false)
		case 4, 5:
			c.Store(seal(t, codec, q1, sqlparse.StringVal(fmt.Sprint(rng.Intn(10)))),
				codec.SealResult(q1, result(1)), false)
		case 6, 7:
			c.Lookup(seal(t, codec, q2, sqlparse.IntVal(int64(rng.Intn(20)))))
		default:
			su, _ := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(int64(rng.Intn(20)))})
			onUpdate(c, su)
		}
		if c.Len() != c.lru.len {
			t.Fatalf("step %d: len %d != lru %d", step, c.Len(), c.lru.len)
		}
		if c.Len() > 8 {
			t.Fatalf("step %d: over capacity: %d", step, c.Len())
		}
	}
	if c.Stats().Evictions == 0 {
		t.Error("no evictions exercised")
	}
}
