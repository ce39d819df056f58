package proto

import (
	"testing"

	"godsm/internal/pagemem"
)

// Adaptive-backend white-box tests: the decideMoves rule table, lockstep
// mode switching end to end, and a regression test for the transition
// invariant (an ex-home must commit its open twin before serving a hybrid
// base).

func adpRig(n int) *rig { return newRigCfg(n, Config{Protocol: "adp"}) }

func (r *rig) adp(node int) *adpCoherence { return r.nodes[node].coh.(*adpCoherence) }

// consumedAcc builds an episode in which readers gathered near-page volume
// from page p with no writers — the diff -> home entry signature.
func consumedAcc(p pagemem.PageID) []PageAcc {
	return []PageAcc{
		acc(p, 1, 0, 1, pagemem.PageSize),
		acc(p, 2, 0, 1, pagemem.PageSize),
		acc(p, 3, 0, 1, pagemem.PageSize),
	}
}

// The entry rule: purely consumed pages with enough page-sized gathers move
// to home mode; anything written, sparse, or historically multi-writer
// stays diff-based.
func TestADPDecideEntry(t *testing.T) {
	r := adpRig(4)
	c := r.adp(0)

	if moves := c.decideMoves(consumedAcc(5)); len(moves) != 1 ||
		moves[0].Page != 5 || moves[0].Mode != ModeHome {
		t.Fatalf("consumed page: moves = %+v, want page 5 -> home mode", moves)
	}

	// Too few faults (a single reader's demand fault + prefetch is 2).
	if moves := c.decideMoves([]PageAcc{
		acc(6, 1, 0, 2, 2*pagemem.PageSize),
	}); len(moves) != 0 {
		t.Fatalf("two-gather page entered home mode: %+v", moves)
	}

	// Enough faults but fine-grained volume.
	if moves := c.decideMoves([]PageAcc{
		acc(6, 1, 0, 1, 64), acc(6, 2, 0, 1, 64), acc(6, 3, 0, 1, 64),
	}); len(moves) != 0 {
		t.Fatalf("sparse page entered home mode: %+v", moves)
	}

	// A writer in the episode disqualifies it.
	withWriter := append(consumedAcc(7), acc(7, 0, 1, 0, 0))
	if moves := c.decideMoves(withWriter); len(moves) != 0 {
		t.Fatalf("written page entered home mode: %+v", moves)
	}
}

// Pages that were ever multi-writer never enter home mode, even in a later
// purely consumed episode.
func TestADPDecideEverMultiBarsEntry(t *testing.T) {
	r := adpRig(4)
	c := r.adp(0)

	multi := []PageAcc{acc(5, 0, 1, 0, 0), acc(5, 2, 1, 0, 0)}
	if moves := c.decideMoves(multi); len(moves) != 0 {
		t.Fatalf("multi-writer diff page produced moves: %+v", moves)
	}
	if !c.barred[5] {
		t.Fatal("multi-writer episode not recorded")
	}
	if moves := c.decideMoves(consumedAcc(5)); len(moves) != 0 {
		t.Fatalf("ever-multi page entered home mode: %+v", moves)
	}
}

// The eviction rules: a home-mode page leaves on a multi-writer episode, or
// on a sole non-home writer whose flush volume is far below page-sized
// replies. An evicted page is barred from re-entering either way.
func TestADPDecideEviction(t *testing.T) {
	r := adpRig(4)
	c := r.adp(0)

	// Multi-writer eviction.
	c.mode[5] = ModeHome
	multi := []PageAcc{acc(5, 0, 1, 0, 0), acc(5, 2, 1, 0, 0)}
	moves := c.decideMoves(multi)
	if len(moves) != 1 || moves[0].Page != 5 || moves[0].Mode != ModeDiff {
		t.Fatalf("multi-writer home page: moves = %+v, want eviction", moves)
	}
	if !c.barred[5] {
		t.Fatal("evicted page not barred")
	}
	delete(c.mode, 5)
	// Barred: later consumed episodes cannot re-enter.
	for i := 0; i < 3; i++ {
		if moves := c.decideMoves(consumedAcc(5)); len(moves) != 0 {
			t.Fatalf("barred page re-entered home mode: %+v", moves)
		}
	}

	// Small-diff eviction: sole writer node 2, page homed at node 1 (9 mod 4
	// = 1), two writes moving far less than half a page.
	c.mode[9] = ModeHome
	moves = c.decideMoves([]PageAcc{acc(9, 2, 2, 0, 128)})
	if len(moves) != 1 || moves[0].Page != 9 || moves[0].Mode != ModeDiff {
		t.Fatalf("small-diff home page: moves = %+v, want eviction", moves)
	}
	delete(c.mode, 9)
	// A single-writer eviction bars the page as well: it was never
	// multi-writer, so only the eviction keeps it out.
	for i := 0; i < 3; i++ {
		if moves := c.decideMoves(consumedAcc(9)); len(moves) != 0 {
			t.Fatalf("small-diff-evicted page re-entered home mode: %+v", moves)
		}
	}

	// The same volume written by the home itself moves nothing on the wire:
	// no eviction.
	c.mode[8] = ModeHome // homed at node 0
	if moves = c.decideMoves([]PageAcc{acc(8, 0, 2, 0, 128)}); len(moves) != 0 {
		t.Fatalf("self-home writer evicted its page: %+v", moves)
	}
}

// fullPageWrite dirties every word of the page at a through the protocol
// entry points.
func fullPageWrite(r *rig, node int, a pagemem.Addr, base float64) {
	for w := 0; w < pagemem.PageSize/8; w++ {
		r.write(node, a+pagemem.Addr(8*w), base+float64(w))
	}
}

// faultRead makes node fault page p in (if invalid) and returns the value at a.
func faultRead(r *rig, node int, a pagemem.Addr) float64 {
	p := pagemem.PageOf(a)
	if !r.nodes[node].PageValid(p) {
		done := false
		r.k.At(r.k.Now(), func() { r.nodes[node].Fault(p, func() { done = true }) })
		r.k.Run()
		if !done {
			panic("faultRead: fault never completed")
		}
	}
	return r.read(node, a)
}

// End to end: a produced-then-consumed page enters home mode in lockstep on
// every replica, later writes flush to the home, and a multi-writer episode
// evicts it back to diff mode — with reads correct throughout.
func TestADPModeSwitchLockstep(t *testing.T) {
	r := adpRig(4)
	p := pagemem.PageOf(page0) // page 1, homed at node 1

	// Episode 0: node 0 produces the whole page.
	r.k.At(0, func() { fullPageWrite(r, 0, page0, 1) })
	r.k.Run()
	r.barrierAll(0)

	// Episode 1: three readers gather it (page-sized diffs, no writers).
	for _, nd := range []int{1, 2, 3} {
		if got := faultRead(r, nd, page0); got != 1 {
			t.Fatalf("node %d read %v, want 1", nd, got)
		}
	}
	r.barrierAll(1)

	for i := 0; i < 4; i++ {
		if !r.adp(i).homeMode(p) {
			t.Fatalf("node %d: page %d not in home mode after the consumed episode", i, p)
		}
	}

	// Episode 2: a home-mode write flushes to the home.
	flushesBefore, _ := r.net.KindStats(KindHomeFlush)
	r.k.At(r.k.Now(), func() { r.write(0, page0, 101) })
	r.k.Run()
	r.barrierAll(2)
	if flushes, _ := r.net.KindStats(KindHomeFlush); flushes <= flushesBefore {
		t.Fatal("home-mode write produced no home flush")
	}
	if got := faultRead(r, 1, page0); got != 101 {
		t.Fatalf("home read %v, want 101", got)
	}

	// Episode 3: two writers in one episode evict the page. Node 2 was
	// invalidated by episode 2's write and refetches from the home first.
	if got := faultRead(r, 2, page0); got != 101 {
		t.Fatalf("node 2 read %v, want 101", got)
	}
	r.k.At(r.k.Now(), func() {
		r.write(0, page0, 7)
		r.write(2, page0+8, 8)
	})
	r.k.Run()
	r.barrierAll(3)
	for i := 0; i < 4; i++ {
		if r.adp(i).homeMode(p) {
			t.Fatalf("node %d: page %d still home-mode after a multi-writer episode", i, p)
		}
		if r.adp(i).exCover[p] == nil {
			t.Fatalf("node %d: no exCover snapshot after the eviction", i)
		}
	}

	// Post-eviction reads resolve the flush-era intervals through the
	// ex-home (hybrid fetch) and stay correct.
	for _, nd := range []int{1, 3} {
		if got := faultRead(r, nd, page0); got != 7 {
			t.Fatalf("node %d read %v, want 7", nd, got)
		}
		if got := r.read(nd, page0+8); got != 8 {
			t.Fatalf("node %d read %v at word 1, want 8", nd, got)
		}
	}

	// Barred: another consumed episode must not re-enter home mode.
	r.barrierAll(4)
	for _, nd := range []int{1, 2, 3} {
		faultRead(r, nd, page0)
	}
	r.barrierAll(5)
	for i := 0; i < 4; i++ {
		if r.adp(i).homeMode(p) {
			t.Fatalf("node %d: barred page %d re-entered home mode", i, p)
		}
	}
}

func writeU64(r *rig, node int, a pagemem.Addr, v uint64) {
	nd := r.nodes[node]
	p := pagemem.PageOf(a)
	if !nd.PageValid(p) {
		panic("writeU64 on invalid page; fault first")
	}
	nd.EnsureWritable(p)
	pagemem.PutU64(nd.Frame(p), pagemem.OffsetOf(a), v)
}

func readU64(r *rig, node int, a pagemem.Addr) uint64 {
	nd := r.nodes[node]
	return pagemem.GetU64(nd.Frame(pagemem.PageOf(a)), pagemem.OffsetOf(a))
}

// Regression test for the transition invariant: an ex-home serving a hybrid
// base while holding an open twin must commit the twin first. Diffs are
// byte-granular, so a diff later made for that interval (against the older
// twin) and applied onto a base already holding part of the interval leaves
// merged words behind: bytes the diff happens to skip (old twin == final
// value) would keep the base's uncommitted content.
//
// The word values are chosen to make the merge visible: the first write
// sets every byte of the word, the second returns all but one byte to the
// original value, so the skipped bytes differ between the two writes.
func TestADPExHomeCommitsTwinBeforeServingBase(t *testing.T) {
	r := adpRig(4)
	p := pagemem.PageOf(page0) // homed at node 1
	word30 := page0 + 30*8
	const (
		v1 = uint64(0xFFFFFFFFFFFFFFFF) // every byte differs from the zero twin
		v2 = uint64(0x00000000000000FF) // bytes 1..7 return to zero
	)

	// Drive the page into home mode and back out (multi-writer eviction),
	// leaving node 1 the ex-home with a current frame.
	r.k.At(0, func() { fullPageWrite(r, 0, page0, 1) })
	r.k.Run()
	r.barrierAll(0)
	for _, nd := range []int{1, 2, 3} {
		faultRead(r, nd, page0)
	}
	r.barrierAll(1)
	if !r.adp(0).homeMode(p) {
		t.Fatal("setup: page never entered home mode")
	}
	r.k.At(r.k.Now(), func() {
		r.write(0, page0+10*8, 111)
		r.write(2, page0+20*8, 222)
	})
	r.k.Run()
	r.barrierAll(2)
	if r.adp(0).homeMode(p) {
		t.Fatal("setup: page never left home mode")
	}

	// Episode 3: the ex-home writes word 30 (the twin snapshots the
	// pre-write frame; the interval stays open), then node 3 faults: its
	// pendings are all flush-era, so a base request goes to the ex-home
	// while that interval is still open.
	if !r.nodes[1].PageValid(p) {
		faultRead(r, 1, page0)
	}
	r.k.At(r.k.Now(), func() { writeU64(r, 1, word30, v1) })
	r.k.Run()
	if got := faultRead(r, 3, page0+10*8); got != 111 {
		t.Fatalf("node 3 read %v at word 10, want 111", got)
	}
	if got := r.read(3, page0+20*8); got != 222 {
		t.Fatalf("node 3 read %v at word 20, want 222", got)
	}
	// The served base carries the committed first write.
	if got := readU64(r, 3, word30); got != v1 {
		t.Fatalf("node 3 base word 30 = %#x, want %#x", got, v1)
	}

	// The ex-home overwrites the same word; only byte 0 keeps v1's value.
	r.k.At(r.k.Now(), func() { writeU64(r, 1, word30, v2) })
	r.k.Run()
	r.barrierAll(3)

	// Node 3 refetches: the diffs for both of node 1's intervals must
	// reproduce v2 exactly. Before the commit-before-serve fix both writes
	// folded into one interval whose diff (old twin vs final frame) skipped
	// the bytes where they coincide, so node 3 kept the uncommitted 0xFF
	// bytes from its base — a merged word that is neither v1 nor v2.
	done := false
	r.k.At(r.k.Now(), func() { r.nodes[3].Fault(p, func() { done = true }) })
	r.k.Run()
	if !done {
		t.Fatal("refetch never completed")
	}
	if got := readU64(r, 3, word30); got != v2 {
		t.Fatalf("node 3 word 30 = %#x, want %#x (merged diff/base bytes)", got, v2)
	}
	if got := readU64(r, 1, word30); got != v2 {
		t.Fatalf("ex-home word 30 = %#x, want %#x", got, v2)
	}
}
