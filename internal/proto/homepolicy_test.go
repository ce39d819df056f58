package proto

import (
	"testing"

	"godsm/internal/pagemem"
)

// Home-policy white-box tests: the page→home table's mod-N mapping at
// awkward cluster sizes, the access aggregation, and migrate's Decide
// rules, plus end-to-end flush/fetch on non-power-of-two clusters.

// acc is a shorthand PageAcc constructor for Decide-rule tests.
func acc(page pagemem.PageID, node, writes, faults int, bytes int64) PageAcc {
	return PageAcc{Page: page, Node: int32(node),
		Writes: int32(writes), Faults: int32(faults), Bytes: bytes}
}

// The default mapping must be page mod N for every page — including page 0,
// the wrap-around pages right at multiples of N, and pages far beyond any
// allocation — and an override must displace exactly its own page.
func TestHomeTableNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{2, 3, 5, 7, 8} {
		tbl := newHomeTable(n)
		pages := []pagemem.PageID{0, 1, pagemem.PageID(n - 1), pagemem.PageID(n),
			pagemem.PageID(2*n + 1), 1<<20 + 3}
		for _, p := range pages {
			if got, want := tbl.home(p), int(p)%n; got != want {
				t.Errorf("n=%d: home(%d) = %d, want %d", n, p, got, want)
			}
		}
		tbl.overrides[pagemem.PageID(n)] = int32(n - 1)
		if got := tbl.home(pagemem.PageID(n)); got != n-1 {
			t.Errorf("n=%d: override ignored, home = %d", n, got)
		}
		if got := tbl.home(pagemem.PageID(2 * n)); got != 0 {
			t.Errorf("n=%d: override leaked to page %d (home %d)", n, 2*n, got)
		}
	}
}

// aggregateAcc must merge repeated records for the same page/node and sort
// the totals by page id.
func TestAggregateAccMergesAndSorts(t *testing.T) {
	agg := aggregateAcc(3, []PageAcc{
		acc(9, 2, 1, 0, 100),
		acc(4, 0, 0, 2, 50),
		acc(9, 2, 1, 3, 20),
		acc(9, 1, 0, 1, 0),
	})
	if len(agg) != 2 || agg[0].page != 4 || agg[1].page != 9 {
		t.Fatalf("aggregate pages = %+v, want [4 9]", agg)
	}
	w, f, b := agg[1].total()
	if w != 2 || f != 4 || b != 120 {
		t.Fatalf("page 9 totals = writes %d faults %d bytes %d, want 2/4/120", w, f, b)
	}
	wc, sole := agg[1].writers()
	if wc != 1 || sole != 2 {
		t.Fatalf("page 9 writers = %d (sole %d), want 1 (sole 2)", wc, sole)
	}
}

// Static (and the empty name) resolve to a nil policy, keeping every
// dynamic code path off; migrate resolves to a live policy.
func TestNewHomePolicyNames(t *testing.T) {
	for _, name := range []string{"", "static"} {
		if mig, err := newHomePolicy(name); err != nil || mig != nil {
			t.Errorf("newHomePolicy(%q) = %v, %v; want nil, nil", name, mig, err)
		}
	}
	if mig, err := newHomePolicy("migrate"); err != nil || mig == nil {
		t.Fatalf("newHomePolicy(migrate) = %v, %v; want a policy", mig, err)
	}
	if _, err := newHomePolicy("firsttouch"); err == nil {
		t.Fatal("newHomePolicy accepted the removed firsttouch policy")
	}
	if _, err := newHomePolicy("bogus"); err == nil {
		t.Fatal("newHomePolicy accepted an unknown name")
	}
}

// Migrate needs a challenger with more than twice the current home's score
// and at least migrateMinScore, and at most one move per page every
// migrateHold episodes.
func TestMigrateDecide(t *testing.T) {
	tbl := newHomeTable(4)
	pol, _ := newHomePolicy("migrate")

	// Page 5 is homed at node 1 (5 mod 4). Node 3: 2 writes + 1 fault = 5,
	// home: 1 write = 2. 5 > 2*2 -> move.
	ep1 := []PageAcc{
		acc(5, 1, 1, 0, 0),
		acc(5, 3, 2, 1, 0),
	}
	moves := pol.Decide(tbl, aggregateAcc(4, ep1))
	if len(moves) != 1 || moves[0].Page != 5 || moves[0].Home != 3 {
		t.Fatalf("moves = %+v, want page 5 -> node 3", moves)
	}
	tbl.overrides[5] = 3

	// Hysteresis: the same dominance the very next episode is held.
	if moves = pol.Decide(tbl, aggregateAcc(4, []PageAcc{
		acc(5, 3, 0, 0, 0),
		acc(5, 0, 3, 0, 0),
	})); len(moves) != 0 {
		t.Fatalf("page moved again within the hold window: %+v", moves)
	}

	// After the hold expires the dominant node takes it.
	if moves = pol.Decide(tbl, aggregateAcc(4, []PageAcc{
		acc(5, 3, 0, 0, 0),
		acc(5, 0, 3, 0, 0),
	})); len(moves) != 1 || moves[0].Home != 0 {
		t.Fatalf("post-hold moves = %+v, want page 5 -> node 0", moves)
	}
	tbl.overrides[5] = 0

	// Mere improvement without 2x dominance stays put: 3 vs home's 2.
	if moves = pol.Decide(tbl, aggregateAcc(4, []PageAcc{
		acc(6, 2, 1, 0, 0),
		acc(6, 1, 1, 1, 0),
	})); len(moves) != 0 {
		t.Fatalf("non-dominant challenger moved the page: %+v", moves)
	}

	// A dominant but tiny score (1 fault vs idle home) is below the floor.
	if moves = pol.Decide(tbl, aggregateAcc(4, []PageAcc{
		acc(9, 0, 0, 1, 0),
	})); len(moves) != 0 {
		t.Fatalf("below-floor score moved the page: %+v", moves)
	}
}

// End to end on non-power-of-two clusters: the write must flush to the
// mod-N home and every other node must fetch the page from there.
func TestHLRCNonPowerOfTwoProcs(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		r := hlrcRig(n)

		// Every node's replica agrees on the mod-N map.
		for i, nd := range r.nodes {
			c := nd.coh.(*hlrcCoherence)
			for p := pagemem.PageID(0); p < pagemem.PageID(3*n); p++ {
				if got, want := c.home(p), int(p)%n; got != want {
					t.Fatalf("n=%d node %d: home(%d) = %d, want %d", n, i, p, got, want)
				}
			}
		}

		// Node 0 writes a page homed at the last node (wrap-around id).
		p := pagemem.PageID(2*n - 1)
		a := p.Base()
		r.k.At(0, func() { r.write(0, a, 9.5) })
		r.k.Run()
		r.barrierAll(0)

		flushes, _ := r.net.KindStats(KindHomeFlush)
		if flushes == 0 {
			t.Fatalf("n=%d: no home flush for page %d", n, p)
		}
		for i := 1; i < n; i++ {
			i := i
			if !r.nodes[i].PageValid(p) {
				done := false
				r.k.At(r.k.Now(), func() { r.nodes[i].Fault(p, func() { done = true }) })
				r.k.Run()
				if !done {
					t.Fatalf("n=%d node %d: fault on page %d never completed", n, i, p)
				}
			}
			if got := r.read(i, a); got != 9.5 {
				t.Fatalf("n=%d node %d: read %v, want 9.5", n, i, got)
			}
		}
		// The home itself resolved without page-request traffic.
		home := int(p) % n
		if got := r.read(home, a); got != 9.5 {
			t.Fatalf("n=%d: home read %v, want 9.5", n, got)
		}
	}
}
