package pagemem

import (
	"reflect"
	"testing"
)

func tableEntries(t *Table[int]) (pages []PageID, vals []int) {
	for p, v := range t.All() {
		pages = append(pages, p)
		vals = append(vals, v)
	}
	return pages, vals
}

func TestTableGetBeyondEndDoesNotGrow(t *testing.T) {
	var tb Table[*int]
	if tb.Get(1000) != nil {
		t.Fatal("Get on an empty table returned an entry")
	}
	tb.Delete(1000)
	if len(tb.v) != 0 {
		t.Fatalf("Get/Delete grew the table to %d", len(tb.v))
	}
	x := 1
	tb.Set(3, &x)
	n := len(tb.v)
	if tb.Get(PageID(n)) != nil || tb.Get(1<<31) != nil {
		t.Fatal("Get beyond the end returned an entry")
	}
	if len(tb.v) != n {
		t.Fatalf("Get beyond the end grew the table from %d to %d", n, len(tb.v))
	}
}

func TestTableGrowsByDoubling(t *testing.T) {
	var tb Table[int]
	tb.Set(0, 1)
	for p := PageID(1); p < 100; p++ {
		before := len(tb.v)
		tb.Set(p, int(p)+1)
		if after := len(tb.v); after != before && after < 2*before {
			t.Fatalf("set of page %d grew %d -> %d, want at least doubling", p, before, after)
		}
	}
	for p := PageID(0); p < 100; p++ {
		if got := tb.Get(p); got != int(p)+1 {
			t.Fatalf("Get(%d) = %d after growth", p, got)
		}
	}
}

func TestTableSparseHighPage(t *testing.T) {
	const high = PageID(1 << 20)
	var tb Table[int]
	tb.Set(high, 7)
	tb.Set(2, 5)
	if tb.Get(high) != 7 || tb.Get(2) != 5 || tb.Get(high-1) != 0 {
		t.Fatalf("sparse entries: Get(high)=%d Get(2)=%d Get(high-1)=%d",
			tb.Get(high), tb.Get(2), tb.Get(high-1))
	}
	pages, _ := tableEntries(&tb)
	if want := []PageID{2, high}; !reflect.DeepEqual(pages, want) {
		t.Fatalf("walk = %v, want %v", pages, want)
	}
}

func TestTableWalkAscendingAfterUnorderedEdits(t *testing.T) {
	var tb Table[int]
	for _, p := range []PageID{40, 7, 19, 3, 64, 11, 2} {
		tb.Set(p, int(p)*10)
	}
	tb.Delete(19)
	tb.Delete(500) // absent, beyond the end: no-op
	tb.Set(11, 0)  // the zero value deletes
	tb.Set(5, 50)
	pages, vals := tableEntries(&tb)
	if want := []PageID{2, 3, 5, 7, 40, 64}; !reflect.DeepEqual(pages, want) {
		t.Fatalf("walk pages = %v, want %v", pages, want)
	}
	if want := []int{20, 30, 50, 70, 400, 640}; !reflect.DeepEqual(vals, want) {
		t.Fatalf("walk values = %v, want %v", vals, want)
	}

	// Stopping early visits only a prefix.
	var first []PageID
	for p := range tb.All() {
		first = append(first, p)
		if len(first) == 2 {
			break
		}
	}
	if want := []PageID{2, 3}; !reflect.DeepEqual(first, want) {
		t.Fatalf("early-stop walk = %v, want %v", first, want)
	}

	n := len(tb.v)
	tb.Reset()
	if pages, _ := tableEntries(&tb); len(pages) != 0 {
		t.Fatalf("walk after Reset = %v", pages)
	}
	if len(tb.v) != n {
		t.Fatalf("Reset changed the table length %d -> %d", n, len(tb.v))
	}
}
