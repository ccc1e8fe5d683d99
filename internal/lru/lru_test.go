package lru

import (
	"fmt"
	"testing"
)

// order lists the keys from least to most recent by walking the
// sentinel ring backwards.
func order(l *List[string, int]) []string {
	var out []string
	for i := l.nodes[0].prev; i != 0; i = l.nodes[i].prev {
		out = append(out, l.nodes[i].key)
	}
	return out
}

func TestRecencyOrder(t *testing.T) {
	var l List[string, int]
	for i, k := range []string{"a", "b", "c", "d"} {
		l.Put(k, i, 1)
	}
	if got := fmt.Sprint(order(&l)); got != "[a b c d]" {
		t.Fatalf("insertion order = %s, want [a b c d]", got)
	}
	if v, ok := l.Get("b"); !ok || v != 1 {
		t.Fatalf("Get(b) = %d, %v", v, ok)
	}
	if got := fmt.Sprint(order(&l)); got != "[a c d b]" {
		t.Fatalf("after Get(b) order = %s, want [a c d b]", got)
	}
	if v, ok := l.Peek("a"); !ok || v != 0 {
		t.Fatalf("Peek(a) = %d, %v", v, ok)
	}
	if got := fmt.Sprint(order(&l)); got != "[a c d b]" {
		t.Fatalf("Peek moved an entry: order = %s", got)
	}
	if _, ok := l.Get("zz"); ok {
		t.Fatal("Get of an absent key hit")
	}
	if _, ok := l.Peek("zz"); ok {
		t.Fatal("Peek of an absent key hit")
	}
}

func TestPutReplacesAndBumps(t *testing.T) {
	var l List[string, int]
	l.Put("a", 1, 10)
	l.Put("b", 2, 20)
	l.Put("a", 3, 5)
	if l.Len() != 2 || l.Cost() != 25 {
		t.Fatalf("Len, Cost = %d, %d, want 2, 25", l.Len(), l.Cost())
	}
	if k, v, ok := l.Oldest(); !ok || k != "b" || v != 2 {
		t.Fatalf("Oldest = %q %d %v, want b 2 (the replaced entry is bumped)", k, v, ok)
	}
	if v, _ := l.Peek("a"); v != 3 {
		t.Fatalf("replaced value = %d, want 3", v)
	}
}

// TestCostEviction drives a byte-budget owner the way the disk store
// does: evict Oldest while Cost is over the bound.
func TestCostEviction(t *testing.T) {
	var l List[string, int]
	const budget = 10
	var evicted []string
	put := func(k string, cost int64) {
		l.Put(k, 0, cost)
		for l.Cost() > budget {
			old, _, _ := l.Oldest()
			evicted = append(evicted, old)
			l.Remove(old)
		}
	}
	put("a", 4)
	put("b", 4)
	l.Get("a")
	put("c", 4) // over budget: b is the oldest after a's bump
	put("d", 7) // a and c go, oldest first
	if got := fmt.Sprint(evicted); got != "[b a c]" {
		t.Fatalf("eviction order = %s, want [b a c]", got)
	}
	if l.Len() != 1 || l.Cost() != 7 {
		t.Fatalf("Len, Cost = %d, %d, want 1, 7", l.Len(), l.Cost())
	}
}

func TestRemove(t *testing.T) {
	var l List[string, int]
	l.Remove("absent") // no-op on an empty list
	for i, k := range []string{"a", "b", "c"} {
		l.Put(k, i, int64(i+1))
	}
	l.Remove("b")
	l.Remove("b")
	if l.Len() != 2 || l.Cost() != 4 {
		t.Fatalf("Len, Cost = %d, %d, want 2, 4", l.Len(), l.Cost())
	}
	if _, ok := l.Get("b"); ok {
		t.Fatal("removed key still present")
	}
	if got := fmt.Sprint(order(&l)); got != "[a c]" {
		t.Fatalf("order = %s, want [a c]", got)
	}
	// The freed slot is reused rather than growing storage.
	slots := len(l.nodes)
	l.Put("d", 9, 1)
	if len(l.nodes) != slots {
		t.Fatalf("storage grew from %d to %d slots despite a free slot", slots, len(l.nodes))
	}
	if got := fmt.Sprint(order(&l)); got != "[a c d]" {
		t.Fatalf("order = %s, want [a c d]", got)
	}
}

func TestOldestEmpty(t *testing.T) {
	var l List[string, int]
	if k, v, ok := l.Oldest(); ok || k != "" || v != 0 {
		t.Fatalf("Oldest on a new list = %q %d %v", k, v, ok)
	}
	l.Put("a", 1, 1)
	l.Remove("a")
	if _, _, ok := l.Oldest(); ok {
		t.Fatal("Oldest on an emptied list reported an entry")
	}
	if l.Len() != 0 || l.Cost() != 0 {
		t.Fatalf("Len, Cost = %d, %d after emptying", l.Len(), l.Cost())
	}
}

// TestZeroValueAllocatesNothing: an unused list must cost nothing, since
// owners build lists per shard and per compile.
func TestZeroValueAllocatesNothing(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		var l List[string, int]
		l.Get("a")
		l.Remove("a")
		l.Oldest()
	})
	if allocs != 0 {
		t.Fatalf("an unused list allocated %.1f objects", allocs)
	}
}
