package proto

import (
	"fmt"
	"sort"

	"godsm/internal/lrc"
	"godsm/internal/pagemem"
)

// Pluggable home assignment for the home-based backends. A homeTable maps
// every page to its current home node; it starts as the static mod-N map
// and is updated in lockstep at barrier releases, so every node's replica
// is identical at every point where the assignment is consulted. The
// migrate policy decides, at the barrier root, which pages move where, from
// per-page access counters the arrivals piggyback.

// PageAcc is one node's access record for one page over one barrier
// episode, piggybacked on barrier arrivals when homes or modes adapt. The
// static assignment attaches none, keeping the arrival wire format (and the
// whole run) byte-identical to the fixed mod-N engine.
type PageAcc struct {
	Page   pagemem.PageID
	Node   int32
	Writes int32 // intervals closed here that wrote the page
	Faults int32 // faults taken here on the page
	Bytes  int64 // diff bytes moved for the page (adp only)
}

// pageAccWire is the estimated on-wire size of one PageAcc record.
const pageAccWire = 24

// Home-move modes (HomeMove.Mode). Home migrations use ModeNone;
// the adaptive backend uses ModeHome/ModeDiff to switch a page's protocol.
const (
	ModeNone uint8 = iota
	ModeHome
	ModeDiff
)

// HomeMove is one root decision distributed with the barrier releases:
// either "page's home is now Home" (migrate) or "page now runs in
// mode Mode" (the adaptive backend; Home is ignored there).
type HomeMove struct {
	Page pagemem.PageID
	Home int32
	Mode uint8
}

// homeMoveWire is the estimated on-wire size of one HomeMove record.
const homeMoveWire = 16

func accWireSize(acc []PageAcc) int   { return pageAccWire * len(acc) }
func movesWireSize(mv []HomeMove) int { return homeMoveWire * len(mv) }

// homeTable is one node's replica of the page → home assignment.
type homeTable struct {
	n         int
	overrides map[pagemem.PageID]int32 // absent: static mod-N
}

func newHomeTable(n int) *homeTable {
	return &homeTable{n: n, overrides: make(map[pagemem.PageID]int32)}
}

func (t *homeTable) home(p pagemem.PageID) int {
	if h, ok := t.overrides[p]; ok {
		return int(h)
	}
	return int(p) % t.n
}

// pageTotals aggregates every node's episode counters for one page.
type pageTotals struct {
	page   pagemem.PageID
	writes []int64 // per node
	faults []int64
	bytes  []int64
}

func (t *pageTotals) total() (writes, faults, bytes int64) {
	for q := range t.writes {
		writes += t.writes[q]
		faults += t.faults[q]
		bytes += t.bytes[q]
	}
	return
}

// writers returns how many nodes wrote the page and the lowest-numbered one.
func (t *pageTotals) writers() (count, sole int) {
	sole = -1
	for q := range t.writes {
		if t.writes[q] > 0 {
			count++
			if sole < 0 {
				sole = q
			}
		}
	}
	return
}

// score is migrate's access weight: writes count double since each one
// implies a diff the home must receive.
func (t *pageTotals) score(q int) int64 { return 2*t.writes[q] + t.faults[q] }

// aggregateAcc merges the per-node records into per-page totals, sorted by
// page id so every consumer iterates deterministically.
func aggregateAcc(nprocs int, acc []PageAcc) []pageTotals {
	byPage := make(map[pagemem.PageID]int)
	var out []pageTotals
	for _, a := range acc {
		i, ok := byPage[a.Page]
		if !ok {
			i = len(out)
			byPage[a.Page] = i
			out = append(out, pageTotals{
				page:   a.Page,
				writes: make([]int64, nprocs),
				faults: make([]int64, nprocs),
				bytes:  make([]int64, nprocs),
			})
		}
		t := &out[i]
		t.writes[a.Node] += int64(a.Writes)
		t.faults[a.Node] += int64(a.Faults)
		t.bytes[a.Node] += int64(a.Bytes)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].page < out[j].page })
	return out
}

// migratePolicy re-homes a page whenever some node's access score dominates
// the current home's by more than 2x (with a minimum absolute score, and at
// most one move per page every migrateHold episodes — hysteresis against
// ping-ponging and against a move being decided while the previous
// transfer is still in flight).
type migratePolicy struct {
	episode  int64
	lastMove map[pagemem.PageID]int64
}

const (
	migrateMinScore = 2
	migrateHold     = 2
)

func (m *migratePolicy) Decide(tbl *homeTable, agg []pageTotals) []HomeMove {
	m.episode++
	var moves []HomeMove
	for i := range agg {
		t := &agg[i]
		if last, ok := m.lastMove[t.page]; ok && m.episode-last < migrateHold {
			continue
		}
		cur := tbl.home(t.page)
		best, bestScore := cur, t.score(cur)
		for q := range t.writes {
			if s := t.score(q); s > bestScore {
				best, bestScore = q, s
			}
		}
		// Never proposes the current home: every move is a real transfer.
		if best == cur || bestScore < migrateMinScore || bestScore <= 2*t.score(cur) {
			continue
		}
		moves = append(moves, HomeMove{Page: t.page, Home: int32(best)})
		m.lastMove[t.page] = m.episode
	}
	return moves
}

// HomePolicies returns the selectable home-policy names in presentation
// order (front ends list them in flag help).
func HomePolicies() []string { return []string{"static", "migrate"} }

// newHomePolicy resolves a policy name: nil selects the static mod-N
// assignment (the paper's HLRC; also the empty name), non-nil migrate.
func newHomePolicy(name string) (*migratePolicy, error) {
	switch name {
	case "", "static":
		return nil, nil
	case "migrate":
		return &migratePolicy{lastMove: make(map[pagemem.PageID]int64)}, nil
	default:
		return nil, fmt.Errorf("unknown home policy %q (have: static, migrate)", name)
	}
}

// accCell is one page's local counters for the episode in progress.
type accCell struct {
	writes, faults int32
	bytes          int64
}

// accSet collects this node's per-page access counters between barriers.
// Pages are tracked in first-touch order and sorted at drain time, so the
// piggybacked records are deterministic without ranging over the map.
type accSet struct {
	cells map[pagemem.PageID]*accCell
	order []pagemem.PageID
}

func newAccSet() *accSet {
	return &accSet{cells: make(map[pagemem.PageID]*accCell)}
}

func (s *accSet) cell(p pagemem.PageID) *accCell {
	c, ok := s.cells[p]
	if !ok {
		c = &accCell{}
		s.cells[p] = c
		s.order = append(s.order, p)
	}
	return c
}

// drain empties the set into wire records sorted by page.
func (s *accSet) drain(node int) []PageAcc {
	if len(s.order) == 0 {
		return nil
	}
	sort.Slice(s.order, func(i, j int) bool { return s.order[i] < s.order[j] })
	out := make([]PageAcc, 0, len(s.order))
	for _, p := range s.order {
		c := s.cells[p]
		out = append(out, PageAcc{
			Page: p, Node: int32(node),
			Writes: c.writes, Faults: c.faults, Bytes: c.bytes,
		})
		delete(s.cells, p)
	}
	s.order = s.order[:0]
	return out
}

// The barrier code consults these optional chassis hooks so it stays
// agnostic of which backend (if any) adapts at episode boundaries.

// homeHooks is implemented by coherence backends whose page→home or
// page→mode assignment adapts at barrier episodes.
type homeHooks interface {
	// episodeAcc drains this node's access counters for the arrival.
	episodeAcc() []PageAcc
	// decideMoves runs at the barrier root with every node's records.
	decideMoves(acc []PageAcc) []HomeMove
	// applyMoves applies the root's decisions to this node's replica; it
	// runs on every node after release intake, before threads resume.
	applyMoves(moves []HomeMove)
}

// noticeFilter is implemented by backends that can prove a write notice's
// data is already in the local frame (a home whose applied vector covers
// the interval), suppressing the invalidation.
type noticeFilter interface {
	filterNotice(p pagemem.PageID, id lrc.IntervalID) bool
}

func (n *Node) episodeAcc() []PageAcc {
	if h, ok := n.coh.(homeHooks); ok {
		return h.episodeAcc()
	}
	return nil
}

func (n *Node) decideMoves(acc []PageAcc) []HomeMove {
	if h, ok := n.coh.(homeHooks); ok {
		return h.decideMoves(acc)
	}
	return nil
}

func (n *Node) applyMoves(moves []HomeMove) {
	if len(moves) == 0 {
		return
	}
	h, ok := n.coh.(homeHooks)
	if !ok {
		n.invariantf("node %d received %d home moves but runs a fixed-home backend",
			n.ID, len(moves))
	}
	h.applyMoves(moves)
}
