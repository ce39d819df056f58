package pagemem

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddrArithmetic(t *testing.T) {
	a := Addr(3*PageSize + 17)
	if PageOf(a) != 3 {
		t.Errorf("PageOf = %d, want 3", PageOf(a))
	}
	if OffsetOf(a) != 17 {
		t.Errorf("OffsetOf = %d, want 17", OffsetOf(a))
	}
	if PageID(3).Base() != 3*PageSize {
		t.Errorf("Base = %d", PageID(3).Base())
	}
}

func TestMakeDiffNilWhenUnchanged(t *testing.T) {
	twin := make([]byte, PageSize)
	cur := make([]byte, PageSize)
	if d := MakeDiff(0, twin, cur); d != nil {
		t.Fatalf("diff of identical pages = %+v, want nil", d)
	}
}

func TestDiffSingleRun(t *testing.T) {
	twin := make([]byte, PageSize)
	cur := make([]byte, PageSize)
	copy(cur[100:], []byte{1, 2, 3})
	d := MakeDiff(7, twin, cur)
	if d == nil || len(d.Runs) != 1 {
		t.Fatalf("diff = %+v", d)
	}
	if d.Page != 7 || d.Runs[0].Offset != 100 || !bytes.Equal(d.Runs[0].Data, []byte{1, 2, 3}) {
		t.Fatalf("diff = %+v", d)
	}
	if d.DataBytes() != 3 {
		t.Errorf("DataBytes = %d", d.DataBytes())
	}
	if d.WireSize() != 8+4+3 {
		t.Errorf("WireSize = %d", d.WireSize())
	}
}

func TestDiffMultipleRuns(t *testing.T) {
	twin := make([]byte, PageSize)
	cur := make([]byte, PageSize)
	cur[0] = 9
	cur[500] = 1
	cur[501] = 2
	cur[PageSize-1] = 5
	d := MakeDiff(0, twin, cur)
	if len(d.Runs) != 3 {
		t.Fatalf("runs = %d, want 3: %+v", len(d.Runs), d.Runs)
	}
}

// Property: applying a diff to a copy of the twin reproduces the modified
// page exactly, for random modifications.
func TestDiffRoundTripProperty(t *testing.T) {
	f := func(seed int64, nMods uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		twin := make([]byte, PageSize)
		rng.Read(twin)
		cur := make([]byte, PageSize)
		copy(cur, twin)
		for i := 0; i < int(nMods); i++ {
			cur[rng.Intn(PageSize)] = byte(rng.Int())
		}
		d := MakeDiff(3, twin, cur)
		rebuilt := make([]byte, PageSize)
		copy(rebuilt, twin)
		if d != nil {
			d.Apply(rebuilt)
		}
		return bytes.Equal(rebuilt, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: diffs from disjoint writers commute — applying them in either
// order yields the same page (the multiple-writer protocol's requirement
// in the absence of true sharing).
func TestDisjointDiffsCommuteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := make([]byte, PageSize)
		rng.Read(base)

		curA := append([]byte(nil), base...)
		curB := append([]byte(nil), base...)
		// Writer A modifies the first half, writer B the second half.
		for i := 0; i < 50; i++ {
			curA[rng.Intn(PageSize/2)] ^= 0xFF
			curB[PageSize/2+rng.Intn(PageSize/2)] ^= 0xFF
		}
		dA := MakeDiff(0, base, curA)
		dB := MakeDiff(0, base, curB)

		ab := append([]byte(nil), base...)
		dA.Apply(ab)
		dB.Apply(ab)
		ba := append([]byte(nil), base...)
		dB.Apply(ba)
		dA.Apply(ba)
		return bytes.Equal(ab, ba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// makeDiffRef is the original byte-at-a-time MakeDiff, kept as the
// reference implementation for the word-wise scanner.
func makeDiffRef(page PageID, twin, current []byte) *Diff {
	var runs []Run
	i := 0
	for i < PageSize {
		if twin[i] == current[i] {
			i++
			continue
		}
		start := i
		for i < PageSize && twin[i] != current[i] {
			i++
		}
		data := make([]byte, i-start)
		copy(data, current[start:i])
		runs = append(runs, Run{Offset: uint16(start), Data: data})
	}
	if runs == nil {
		return nil
	}
	return &Diff{Page: page, Runs: runs}
}

func diffsEqual(a, b *Diff) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Page != b.Page || len(a.Runs) != len(b.Runs) {
		return false
	}
	for i := range a.Runs {
		if a.Runs[i].Offset != b.Runs[i].Offset ||
			!bytes.Equal(a.Runs[i].Data, b.Runs[i].Data) {
			return false
		}
	}
	return true
}

// Property: the word-wise MakeDiff produces exactly the diff the byte-wise
// reference produces, on random twin/page pairs whose modified runs
// straddle 8-byte word boundaries and the page edges.
func TestMakeDiffMatchesByteReference(t *testing.T) {
	f := func(seed int64, nRuns uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		twin := make([]byte, PageSize)
		rng.Read(twin)
		cur := make([]byte, PageSize)
		copy(cur, twin)
		for i := 0; i < int(nRuns%24); i++ {
			// Random run lengths around wordSize so many runs start or end
			// mid-word; a random XOR mask keeps some bytes equal inside the
			// dirtied range, splitting runs at arbitrary offsets.
			start := rng.Intn(PageSize)
			n := 1 + rng.Intn(3*wordSize)
			if start+n > PageSize {
				n = PageSize - start
			}
			for j := start; j < start+n; j++ {
				cur[j] ^= byte(1 + rng.Intn(255))
			}
		}
		// Explicitly exercise both page edges half the time.
		if seed%2 == 0 {
			cur[0] ^= 0xA5
			cur[PageSize-1] ^= 0x5A
		}
		got := MakeDiff(9, twin, cur)
		want := makeDiffRef(9, twin, cur)
		return diffsEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Directed edge cases for the word-wise scanner: runs that start or stop at
// every offset within a word, at the very first and last bytes of the page,
// and a fully modified page.
func TestMakeDiffWordBoundaryEdges(t *testing.T) {
	check := func(name string, twin, cur []byte) {
		t.Helper()
		if got, want := MakeDiff(1, twin, cur), makeDiffRef(1, twin, cur); !diffsEqual(got, want) {
			t.Errorf("%s: word-wise diff %+v != reference %+v", name, got, want)
		}
	}
	for off := 0; off < 2*wordSize; off++ {
		for n := 1; n <= 2*wordSize; n++ {
			twin := make([]byte, PageSize)
			cur := make([]byte, PageSize)
			for j := off; j < off+n; j++ {
				cur[j] = 0xFF
			}
			check(fmt.Sprintf("run [%d,%d)", off, off+n), twin, cur)
		}
	}
	twin := make([]byte, PageSize)
	cur := make([]byte, PageSize)
	cur[PageSize-1] = 1
	check("last byte", twin, cur)
	cur[PageSize-1] = 0
	cur[0] = 1
	check("first byte", twin, cur)
	for i := range cur {
		cur[i] = 0xEE
	}
	check("full page", twin, cur)
}

func TestStoreFrameLazyZero(t *testing.T) {
	s := NewStore()
	if s.HasFrame(5) {
		t.Fatal("frame exists before touch")
	}
	f := s.Frame(5)
	if len(f) != PageSize {
		t.Fatalf("frame len = %d", len(f))
	}
	for _, b := range f {
		if b != 0 {
			t.Fatal("frame not zeroed")
		}
	}
	if !s.HasFrame(5) {
		t.Fatal("frame missing after touch")
	}
	f[0] = 42
	if s.Frame(5)[0] != 42 {
		t.Fatal("frame not stable across calls")
	}
}

func TestTwinLifecycle(t *testing.T) {
	s := NewStore()
	f := s.Frame(1)
	f[10] = 7
	s.MakeTwin(1)
	if s.TwinCount() != 1 {
		t.Fatalf("twin count = %d", s.TwinCount())
	}
	f[10] = 99
	if s.Twin(1)[10] != 7 {
		t.Fatal("twin mutated along with frame")
	}
	d := MakeDiff(1, s.Twin(1), f)
	if d == nil || d.Runs[0].Offset != 10 {
		t.Fatalf("diff = %+v", d)
	}
	s.DropTwin(1)
	if s.Twin(1) != nil || s.TwinCount() != 0 {
		t.Fatal("twin not dropped")
	}
}

func TestDoubleTwinPanics(t *testing.T) {
	s := NewStore()
	s.MakeTwin(1)
	defer func() {
		if recover() == nil {
			t.Fatal("second MakeTwin did not panic")
		}
	}()
	s.MakeTwin(1)
}

// Queries for pages the store never touched must answer "absent" without
// materializing anything, however far beyond the touched pages they are.
func TestStoreQueriesBeyondTableDoNotGrow(t *testing.T) {
	s := NewStore()
	s.Frame(2)
	n := len(s.frames.v)
	for _, p := range []PageID{PageID(n), PageID(n) + 1, 1 << 20, 1<<32 - 1} {
		if s.HasFrame(p) || s.Twin(p) != nil {
			t.Fatalf("page %d reported present", p)
		}
		s.DropTwin(p) // absent: no-op
	}
	if len(s.frames.v) != n || len(s.twins.v) != 0 {
		t.Fatalf("queries grew the tables: frames %d -> %d, twins %d", n, len(s.frames.v), len(s.twins.v))
	}
	if s.TwinCount() != 0 {
		t.Fatalf("TwinCount = %d after DropTwin of absent pages", s.TwinCount())
	}
}

func TestStoreSparseHighPage(t *testing.T) {
	const high = PageID(1 << 20)
	s := NewStore()
	s.Frame(high)[9] = 3
	s.MakeTwin(high)
	s.Frame(high)[9] = 4
	if !s.HasFrame(high) || s.HasFrame(high-1) || s.HasFrame(1) {
		t.Fatal("HasFrame wrong around a sparse high page")
	}
	d := MakeDiff(high, s.Twin(high), s.Frame(high))
	if d == nil || len(d.Runs) != 1 || d.Runs[0].Offset != 9 {
		t.Fatalf("diff of a high page = %+v", d)
	}
}

// TwinCount is a maintained counter, so it must track every make/drop,
// including drops of pages without a twin.
func TestStoreTwinCountCycles(t *testing.T) {
	s := NewStore()
	want := 0
	check := func(step string) {
		t.Helper()
		if got := s.TwinCount(); got != want {
			t.Fatalf("%s: TwinCount = %d, want %d", step, got, want)
		}
	}
	for round := 0; round < 3; round++ {
		for _, p := range []PageID{5, 1, 9} {
			s.MakeTwin(p)
			want++
			check(fmt.Sprintf("round %d make %d", round, p))
		}
		s.DropTwin(1)
		want--
		s.DropTwin(1) // already dropped
		s.DropTwin(7) // never twinned
		check(fmt.Sprintf("round %d drops", round))
		s.DropTwin(5)
		s.DropTwin(9)
		want -= 2
		check(fmt.Sprintf("round %d drain", round))
	}
	s.MakeTwin(3)
	defer func() {
		if recover() == nil {
			t.Fatal("second MakeTwin after make/drop cycles did not panic")
		}
	}()
	s.MakeTwin(3)
}

func TestAllocatorAlignment(t *testing.T) {
	a := NewAllocator()
	x := a.Alloc(3, 1)
	y := a.Alloc(8, 8)
	if y%8 != 0 {
		t.Fatalf("y = %d not 8-aligned", y)
	}
	if y <= x {
		t.Fatalf("allocations overlap: x=%d y=%d", x, y)
	}
	p := a.AllocPages(2)
	if p%PageSize != 0 {
		t.Fatalf("page alloc %d not page aligned", p)
	}
	if a.Brk() != p+2*PageSize {
		t.Fatalf("brk = %d", a.Brk())
	}
}

func TestAllocatorDeterminism(t *testing.T) {
	run := func() []Addr {
		a := NewAllocator()
		var out []Addr
		out = append(out, a.Alloc(100, 8), a.AllocPages(3), a.Alloc(16, 16))
		return out
	}
	x, y := run(), run()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("allocator nondeterministic: %v vs %v", x, y)
		}
	}
}

func TestTypedAccessors(t *testing.T) {
	f := make([]byte, PageSize)
	PutU64(f, 0, 0xDEADBEEF12345678)
	if GetU64(f, 0) != 0xDEADBEEF12345678 {
		t.Fatal("u64 round trip failed")
	}
	PutU32(f, 8, 77)
	if GetU32(f, 8) != 77 {
		t.Fatal("u32 round trip failed")
	}
	PutF64(f, 16, -3.25)
	if GetF64(f, 16) != -3.25 {
		t.Fatal("f64 round trip failed")
	}
}

func TestScalarPropertyRoundTrip(t *testing.T) {
	f := func(v float64, off uint16) bool {
		frame := make([]byte, PageSize)
		o := int(off) % (PageSize - 8)
		PutF64(frame, o, v)
		got := GetF64(frame, o)
		return got == v || (v != v && got != got) // NaN-safe
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
