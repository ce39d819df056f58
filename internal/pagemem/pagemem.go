// Package pagemem implements the paged shared address space that the DSM
// protocol manages: page/address arithmetic, per-node page frames, twin
// copies for the multiple-writer protocol, run-length-encoded diffs, and a
// bump allocator for the shared heap.
//
// TreadMarks detects modifications by write-protecting pages and comparing
// a dirty page against a pristine "twin"; the diff (the RLE encoding of the
// changed bytes) is what travels on the network. This package reproduces
// those data structures exactly; only the fault detection mechanism (VM
// protection in the paper, explicit access checks here) differs.
package pagemem

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// PageSize is the virtual-memory page size (4 KB, as on the paper's AIX
// RS/6000 machines).
const (
	PageSize  = 4096
	PageShift = 12
)

// Addr is an address in the shared virtual address space.
type Addr uint64

// PageID identifies a shared page.
type PageID uint32

// PageOf returns the page containing a.
func PageOf(a Addr) PageID { return PageID(a >> PageShift) }

// OffsetOf returns a's offset within its page.
func OffsetOf(a Addr) int { return int(a & (PageSize - 1)) }

// Base returns the first address of page p.
func (p PageID) Base() Addr { return Addr(p) << PageShift }

// A Run is one contiguous range of modified bytes within a page.
type Run struct {
	Offset uint16
	Data   []byte
}

// Diff is the set of modifications made to one page, relative to its twin.
type Diff struct {
	Page PageID
	Runs []Run
}

// runHeaderSize is the wire overhead per run (offset + length).
const runHeaderSize = 4

// wordSize is the diff scanner's comparison granularity: 8 bytes compared
// per load instead of 1.
const wordSize = 8

// runBound is one run's [start, end) byte range, recorded during the scan
// pass before any allocation happens.
type runBound struct{ start, end int }

// diffScratch holds the reusable per-call state of MakeDiff so that
// steady-state diffing allocates only the returned Diff itself. A sync.Pool
// keeps the scratch safe to share between concurrently running simulations.
type diffScratch struct{ bounds []runBound }

var diffPool = sync.Pool{New: func() any { return new(diffScratch) }}

// nextDiff returns the index of the first byte >= i at which twin and
// current differ, or PageSize if the rest of the page matches. Equal
// stretches are skipped a word at a time.
func nextDiff(twin, current []byte, i int) int {
	for i+wordSize <= PageSize {
		x := binary.LittleEndian.Uint64(twin[i:]) ^ binary.LittleEndian.Uint64(current[i:])
		if x != 0 {
			return i + bits.TrailingZeros64(x)>>3
		}
		i += wordSize
	}
	for i < PageSize && twin[i] == current[i] {
		i++
	}
	return i
}

// nextMatch returns the index of the first byte >= i at which twin and
// current agree, or PageSize if the rest of the page differs. Fully
// differing stretches are skipped a word at a time; a zero byte in the XOR
// (an equal byte) is located with the SWAR zero-byte trick.
func nextMatch(twin, current []byte, i int) int {
	const (
		lo = 0x0101010101010101
		hi = 0x8080808080808080
	)
	for i+wordSize <= PageSize {
		x := binary.LittleEndian.Uint64(twin[i:]) ^ binary.LittleEndian.Uint64(current[i:])
		if zero := (x - lo) &^ x & hi; zero != 0 {
			return i + bits.TrailingZeros64(zero)>>3
		}
		i += wordSize
	}
	for i < PageSize && twin[i] != current[i] {
		i++
	}
	return i
}

// MakeDiff compares a modified page against its twin and returns the RLE
// diff, or nil if the page is unchanged. Both slices must be PageSize long.
//
// The comparison runs a word (8 bytes) at a time, and the diff's runs share
// one backing buffer sized during the scan pass, so a call performs at most
// two allocations regardless of how fragmented the modifications are (and
// none when the page is unchanged).
func MakeDiff(page PageID, twin, current []byte) *Diff {
	if len(twin) != PageSize || len(current) != PageSize {
		panic(fmt.Sprintf("pagemem: MakeDiff on %d/%d byte buffers", len(twin), len(current)))
	}
	sc := diffPool.Get().(*diffScratch)
	bounds := sc.bounds[:0]
	total := 0
	for i := nextDiff(twin, current, 0); i < PageSize; {
		end := nextMatch(twin, current, i)
		bounds = append(bounds, runBound{i, end})
		total += end - i
		i = nextDiff(twin, current, end)
	}
	sc.bounds = bounds
	if len(bounds) == 0 {
		diffPool.Put(sc)
		return nil
	}
	runs := make([]Run, len(bounds))
	data := make([]byte, total)
	off := 0
	for j, b := range bounds {
		n := b.end - b.start
		d := data[off : off+n : off+n]
		copy(d, current[b.start:b.end])
		runs[j] = Run{Offset: uint16(b.start), Data: d}
		off += n
	}
	diffPool.Put(sc)
	return &Diff{Page: page, Runs: runs}
}

// Apply writes the diff's runs into page contents buf (PageSize long).
func (d *Diff) Apply(buf []byte) {
	if len(buf) != PageSize {
		panic("pagemem: Apply on short buffer")
	}
	for _, r := range d.Runs {
		copy(buf[r.Offset:int(r.Offset)+len(r.Data)], r.Data)
	}
}

// WireSize returns the number of bytes the diff occupies in a message.
func (d *Diff) WireSize() int {
	if d == nil {
		return 0
	}
	n := 8 // page id + run count
	for _, r := range d.Runs {
		n += runHeaderSize + len(r.Data)
	}
	return n
}

// DataBytes returns the number of modified bytes the diff carries.
func (d *Diff) DataBytes() int {
	n := 0
	for _, r := range d.Runs {
		n += len(r.Data)
	}
	return n
}

// Store holds one node's local copies of shared pages and their twins.
// Frames are allocated lazily and are zero-filled, matching the convention
// that the shared heap starts zeroed everywhere.
//
// Frames and twins live in dense page tables (Table), so resolving a
// resident page on the access path is a slice index, not a map lookup.
// Page-sized buffers are carved out of multi-page slabs rather than
// allocated one by one, and twin buffers retired by DropTwin are kept on a
// free list for the next MakeTwin, so steady-state twinning does not
// allocate. A Store belongs to one simulated node and is not safe for
// concurrent use; concurrently running simulations each have their own
// stores.
type Store struct {
	frames Table[*pageBuf]
	twins  Table[*pageBuf]
	nTwins int // live twins, so TwinCount stays O(1)

	slab      []byte     // remainder of the current zeroed allocation slab
	freeTwins []*pageBuf // retired twin buffers, reused by MakeTwin
}

// pageBuf is one page-sized buffer. Tables hold it by pointer, whose nil
// zero value marks an absent page.
type pageBuf = [PageSize]byte

// slabPages is how many page frames one allocation slab provides.
const slabPages = 64

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// newPageBuf carves one zeroed page-sized buffer out of the current slab.
func (s *Store) newPageBuf() *pageBuf {
	if len(s.slab) < PageSize {
		s.slab = make([]byte, slabPages*PageSize)
	}
	b := (*pageBuf)(s.slab[:PageSize])
	s.slab = s.slab[PageSize:]
	return b
}

// Frame returns the local copy of page p, allocating a zeroed frame on
// first touch.
func (s *Store) Frame(p PageID) []byte {
	f := s.frames.Get(p)
	if f == nil {
		f = s.newPageBuf()
		s.frames.Set(p, f)
	}
	return f[:]
}

// HasFrame reports whether a frame for p has been materialized.
func (s *Store) HasFrame(p PageID) bool { return s.frames.Get(p) != nil }

// MakeTwin snapshots page p's current contents as its twin. It panics if a
// twin already exists: the protocol must discard the old twin first.
func (s *Store) MakeTwin(p PageID) {
	if s.twins.Get(p) != nil {
		panic(fmt.Sprintf("pagemem: twin for page %d already exists", p))
	}
	var twin *pageBuf
	if n := len(s.freeTwins); n > 0 {
		twin = s.freeTwins[n-1]
		s.freeTwins = s.freeTwins[:n-1]
	} else {
		twin = s.newPageBuf()
	}
	copy(twin[:], s.Frame(p)) // overwrites the whole buffer; no zeroing needed
	s.twins.Set(p, twin)
	s.nTwins++
}

// Twin returns page p's twin, or nil if none exists. The returned slice is
// only valid until DropTwin(p): the buffer is then recycled for a future
// twin.
func (s *Store) Twin(p PageID) []byte {
	if twin := s.twins.Get(p); twin != nil {
		return twin[:]
	}
	return nil
}

// DropTwin discards page p's twin and recycles its buffer.
func (s *Store) DropTwin(p PageID) {
	if twin := s.twins.Get(p); twin != nil {
		s.freeTwins = append(s.freeTwins, twin)
		s.twins.Delete(p)
		s.nTwins--
	}
}

// TwinCount returns the number of live twins (diagnostics / GC accounting).
func (s *Store) TwinCount() int { return s.nTwins }

// Allocator is a bump allocator for the shared heap. All nodes run the same
// allocation sequence deterministically, so addresses agree without
// communication (the applications allocate in their init phase, as the
// SPLASH-2 programs do).
type Allocator struct {
	next Addr
}

// NewAllocator returns an allocator starting at page 1 (address 0 is kept
// unmapped to catch zero-address bugs).
func NewAllocator() *Allocator { return &Allocator{next: PageSize} }

// Alloc returns a size-byte region aligned to align (which must be a power
// of two). Scalar types must use their natural alignment so no scalar ever
// straddles a page boundary.
func (a *Allocator) Alloc(size int, align int) Addr {
	if size <= 0 {
		panic("pagemem: Alloc of non-positive size")
	}
	if align <= 0 || align&(align-1) != 0 {
		panic("pagemem: alignment must be a positive power of two")
	}
	mask := Addr(align - 1)
	a.next = (a.next + mask) &^ mask
	addr := a.next
	a.next += Addr(size)
	return addr
}

// AllocPages returns a page-aligned region covering n whole pages.
func (a *Allocator) AllocPages(n int) Addr {
	return a.Alloc(n*PageSize, PageSize)
}

// Brk returns the current top of the shared heap.
func (a *Allocator) Brk() Addr { return a.next }

// Typed accessors over raw page frames. The DSM env layer resolves the
// frame and offset; these helpers only do the encoding. Little-endian,
// matching Go's x86/arm targets, but any fixed choice works since all
// simulated nodes share it.

// GetU64 reads a uint64 at off.
func GetU64(frame []byte, off int) uint64 { return binary.LittleEndian.Uint64(frame[off:]) }

// PutU64 writes a uint64 at off.
func PutU64(frame []byte, off int, v uint64) { binary.LittleEndian.PutUint64(frame[off:], v) }

// GetU32 reads a uint32 at off.
func GetU32(frame []byte, off int) uint32 { return binary.LittleEndian.Uint32(frame[off:]) }

// PutU32 writes a uint32 at off.
func PutU32(frame []byte, off int, v uint32) { binary.LittleEndian.PutUint32(frame[off:], v) }

// GetF64 reads a float64 at off.
func GetF64(frame []byte, off int) float64 { return math.Float64frombits(GetU64(frame, off)) }

// PutF64 writes a float64 at off.
func PutF64(frame []byte, off int, v float64) { PutU64(frame, off, math.Float64bits(v)) }
