package pagemem

import "iter"

// Table is a dense page-indexed table: a slice indexed by PageID that
// stands in for a map[PageID]V on the per-access path. Page IDs are dense
// because Allocator is a bump allocator, so a slice costs one bounds check
// where a map costs a hash lookup.
//
// V's zero value means absent: Set(p, zero) is Delete(p). The table grows
// by doubling to the highest page set, never to the heap's Brk, so a node
// that touches few pages keeps a small table; its memory is proportional to
// the highest page it has set, not to the number of entries. The zero
// Table is empty and ready to use. Not safe for concurrent use.
type Table[V comparable] struct {
	v []V
}

// Get returns page p's entry, or the zero value when p is absent. It never
// grows the table.
func (t *Table[V]) Get(p PageID) V {
	if uint(p) < uint(len(t.v)) {
		return t.v[p]
	}
	var zero V
	return zero
}

// Set stores v as page p's entry, growing the table to cover p.
func (t *Table[V]) Set(p PageID, v V) {
	if uint(p) >= uint(len(t.v)) {
		t.grow(p)
	}
	t.v[p] = v
}

// grow extends the table to cover p, at least doubling its length so a run
// of ascending sets costs amortized O(1).
func (t *Table[V]) grow(p PageID) {
	n := max(2*len(t.v), int(p)+1)
	v := make([]V, n)
	copy(v, t.v)
	t.v = v
}

// Delete removes page p's entry; deleting an absent page is a no-op.
func (t *Table[V]) Delete(p PageID) {
	if uint(p) < uint(len(t.v)) {
		var zero V
		t.v[p] = zero
	}
}

// Reset removes every entry, keeping the table's storage for reuse.
func (t *Table[V]) Reset() { clear(t.v) }

// All walks the present entries in ascending page order. The walk reads
// the table as it stands at each step; a body that sets or deletes entries
// should collect the pages first.
func (t *Table[V]) All() iter.Seq2[PageID, V] {
	return func(yield func(PageID, V) bool) {
		var zero V
		for i := 0; i < len(t.v); i++ {
			if v := t.v[i]; v != zero && !yield(PageID(i), v) {
				return
			}
		}
	}
}
