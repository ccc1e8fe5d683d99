// Package lru is the recency list behind every bounded cache in the
// module: the pattern cache's shards, the result cache's memory tier and
// the disk store's index. A List orders its entries from most to least
// recently used and keeps a running total of the costs they were put with
// (1 per entry for count-bounded caches, bytes for the disk store).
//
// A List is not safe for concurrent use and never evicts on its own:
// each owner holds its own lock and applies its own policy by removing
// Oldest entries while Len or Cost is over its bound. The zero value is
// an empty list ready to use; storage grows with the entries put, so a
// list costs nothing until it is filled.
package lru

// List is a cost-weighted recency list of K→V entries.
type List[K comparable, V any] struct {
	index map[K]int
	// nodes[0] is the sentinel of a circular doubly-linked list: its
	// next is the most recent entry and its prev the least recent.
	// Removed slots are chained through next from free (0 = none).
	nodes []node[K, V]
	free  int
	cost  int64
}

type node[K comparable, V any] struct {
	key        K
	val        V
	cost       int64
	prev, next int
}

// Len returns the number of entries.
func (l *List[K, V]) Len() int { return len(l.index) }

// Cost returns the sum of the entries' costs.
func (l *List[K, V]) Cost() int64 { return l.cost }

// Get returns the value stored under k and makes it the most recent entry.
func (l *List[K, V]) Get(k K) (V, bool) {
	i, ok := l.index[k]
	if !ok {
		var zero V
		return zero, false
	}
	l.unlink(i)
	l.pushFront(i)
	return l.nodes[i].val, true
}

// Peek returns the value stored under k without changing its recency.
func (l *List[K, V]) Peek(k K) (V, bool) {
	i, ok := l.index[k]
	if !ok {
		var zero V
		return zero, false
	}
	return l.nodes[i].val, true
}

// Put stores v under k with the given cost and makes it the most recent
// entry, replacing the value and cost of an existing entry.
func (l *List[K, V]) Put(k K, v V, cost int64) {
	if i, ok := l.index[k]; ok {
		n := &l.nodes[i]
		l.cost += cost - n.cost
		n.val, n.cost = v, cost
		l.unlink(i)
		l.pushFront(i)
		return
	}
	if l.index == nil {
		l.index = make(map[K]int)
		l.nodes = make([]node[K, V], 1)
	}
	i := l.free
	if i != 0 {
		l.free = l.nodes[i].next
	} else {
		i = len(l.nodes)
		l.nodes = append(l.nodes, node[K, V]{})
	}
	l.nodes[i] = node[K, V]{key: k, val: v, cost: cost}
	l.index[k] = i
	l.cost += cost
	l.pushFront(i)
}

// Remove deletes the entry stored under k, if any.
func (l *List[K, V]) Remove(k K) {
	i, ok := l.index[k]
	if !ok {
		return
	}
	l.unlink(i)
	delete(l.index, k)
	l.cost -= l.nodes[i].cost
	// Clear the slot so the list holds no reference to the old value.
	l.nodes[i] = node[K, V]{next: l.free}
	l.free = i
}

// Oldest returns the least recently used entry without changing its
// recency; ok is false when the list is empty.
func (l *List[K, V]) Oldest() (k K, v V, ok bool) {
	if len(l.index) == 0 {
		return k, v, false
	}
	n := &l.nodes[l.nodes[0].prev]
	return n.key, n.val, true
}

func (l *List[K, V]) unlink(i int) {
	n := &l.nodes[i]
	l.nodes[n.prev].next = n.next
	l.nodes[n.next].prev = n.prev
}

func (l *List[K, V]) pushFront(i int) {
	head := l.nodes[0].next
	l.nodes[i].prev, l.nodes[i].next = 0, head
	l.nodes[head].prev = i
	l.nodes[0].next = i
}
