package memory

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestContig(t *testing.T) {
	dm := Contig(4)
	if dm.Size() != 4 || dm.Extent != 4 || len(dm.Segments) != 1 {
		t.Fatalf("Contig(4) = %v", dm)
	}
	if Contig(0).Size() != 0 {
		t.Error("Contig(0) should be empty")
	}
}

func TestDataMapPaperExample(t *testing.T) {
	// Paper §IV-C-1c: two MPI_INTs separated by an 8-byte gap is
	// {(0,4),(12,4)}.
	dm := DataMap{Segments: []Segment{{0, 4}, {12, 4}}, Extent: 16}
	if dm.Size() != 8 {
		t.Errorf("Size = %d, want 8", dm.Size())
	}
	if dm.Span() != 16 {
		t.Errorf("Span = %d, want 16", dm.Span())
	}
	ivs := dm.Tile(1000, 2)
	// Element 1 starts at 1016, so element 0's (12,4) segment [1012,1016)
	// coalesces with element 1's (0,4) segment [1016,1020).
	want := []Interval{Iv(1000, 4), Iv(1012, 8), Iv(1028, 4)}
	if !reflect.DeepEqual(ivs, want) {
		t.Errorf("Tile = %v, want %v", ivs, want)
	}
}

func TestDataMapNormalize(t *testing.T) {
	dm := DataMap{Segments: []Segment{{8, 4}, {0, 4}, {4, 4}, {20, 2}}}
	n := dm.Normalize()
	want := []Segment{{0, 12}, {20, 2}}
	if !reflect.DeepEqual(n.Segments, want) {
		t.Errorf("Normalize = %v, want %v", n.Segments, want)
	}
	if n.Extent != 22 {
		t.Errorf("Extent defaulted to %d, want 22", n.Extent)
	}
	// Overlapping segments merge too.
	n2 := DataMap{Segments: []Segment{{0, 10}, {5, 10}}}.Normalize()
	if !reflect.DeepEqual(n2.Segments, []Segment{{0, 15}}) {
		t.Errorf("overlap merge = %v", n2.Segments)
	}
}

func TestDataMapTileCoalesces(t *testing.T) {
	// Contiguous elements tile into a single interval.
	ivs := Contig(8).Tile(0, 4)
	if len(ivs) != 1 || ivs[0] != Iv(0, 32) {
		t.Errorf("contig tile = %v", ivs)
	}
	// Extent > size leaves gaps.
	dm := DataMap{Segments: []Segment{{0, 4}}, Extent: 8}
	ivs = dm.Tile(0, 3)
	want := []Interval{Iv(0, 4), Iv(8, 4), Iv(16, 4)}
	if !reflect.DeepEqual(ivs, want) {
		t.Errorf("strided tile = %v, want %v", ivs, want)
	}
}

func TestDataMapOffsets(t *testing.T) {
	dm := DataMap{Segments: []Segment{{0, 2}, {4, 1}}, Extent: 8}
	got := dm.Offsets(2)
	want := []uint64{0, 1, 4, 8, 9, 12}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Offsets = %v, want %v", got, want)
	}
	if uint64(len(got)) != dm.TileBytes(2) {
		t.Error("Offsets length must equal TileBytes")
	}
}

func TestTilesOverlap(t *testing.T) {
	a := Contig(4)
	// Same base: must overlap.
	if _, ok := TilesOverlap(a, 100, 1, a, 100, 1); !ok {
		t.Error("identical tiles must overlap")
	}
	// Disjoint bases.
	if _, ok := TilesOverlap(a, 100, 1, a, 104, 1); ok {
		t.Error("adjacent tiles must not overlap")
	}
	// Interleaved strided types that never touch: {0,4} ext 8 vs {4,4} ext 8.
	x := DataMap{Segments: []Segment{{0, 4}}, Extent: 8}
	y := DataMap{Segments: []Segment{{4, 4}}, Extent: 8}
	if _, ok := TilesOverlap(x, 0, 10, y, 0, 10); ok {
		t.Error("interleaved disjoint tiles must not overlap")
	}
	// Shift y by 2 bytes: now they collide.
	if iv, ok := TilesOverlap(x, 0, 10, y, 2, 10); !ok || iv.Empty() {
		t.Error("shifted interleave must overlap")
	}
}

// Property: TilesOverlap agrees with a naive byte-set comparison.
func TestTilesOverlapMatchesModel(t *testing.T) {
	f := func(baseA, baseB uint8, extA, extB uint8, lenA, lenB uint8, cA, cB uint8) bool {
		a := DataMap{Segments: []Segment{{0, uint64(lenA%8) + 1}}, Extent: uint64(extA%8) + uint64(lenA%8) + 1}
		b := DataMap{Segments: []Segment{{0, uint64(lenB%8) + 1}}, Extent: uint64(extB%8) + uint64(lenB%8) + 1}
		countA, countB := int(cA%6)+1, int(cB%6)+1
		bytesOf := func(dm DataMap, base uint64, count int) map[uint64]bool {
			m := map[uint64]bool{}
			for _, off := range dm.Offsets(count) {
				m[base+off] = true
			}
			return m
		}
		ma := bytesOf(a, uint64(baseA), countA)
		mb := bytesOf(b, uint64(baseB), countB)
		want := false
		for k := range ma {
			if mb[k] {
				want = true
				break
			}
		}
		_, got := TilesOverlap(a, uint64(baseA), countA, b, uint64(baseB), countB)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: Tile covers exactly TileBytes bytes and intervals are sorted.
func TestTileInvariant(t *testing.T) {
	f := func(segs []uint16, count uint8) bool {
		if len(segs) == 0 {
			return true
		}
		if len(segs) > 4 {
			segs = segs[:4]
		}
		dm := DataMap{}
		for i, s := range segs {
			dm.Segments = append(dm.Segments, Segment{
				Disp: uint64(i*32) + uint64(s%16),
				Len:  uint64(s/16)%8 + 1,
			})
		}
		dm.Extent = dm.Span() + 8
		n := int(count%5) + 1
		ivs := dm.Tile(500, n)
		var total uint64
		var prev Interval
		for i, iv := range ivs {
			if iv.Empty() {
				return false
			}
			if i > 0 && iv.Lo < prev.Hi {
				return false
			}
			total += iv.Len()
			prev = iv
		}
		return total == dm.TileBytes(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// AppendTile extends dst with Tile's intervals and never coalesces the
// first of them into an entry dst already held, even when they touch.
func TestAppendTileKeepsPrefix(t *testing.T) {
	contig := Contig(8)
	dst := []Interval{Iv(0, 8)}
	got := contig.AppendTile(dst, 8, 2) // starts where dst[0] ends
	want := []Interval{Iv(0, 8), Iv(8, 16)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendTile = %v, want %v", got, want)
	}
	if dst[0] != Iv(0, 8) {
		t.Fatalf("AppendTile changed dst[0] to %v", dst[0])
	}
	// A strided tile appended twice back to back: the second call's first
	// interval touches the first call's last one and stays separate.
	strided := DataMap{Segments: []Segment{{0, 4}, {4, 4}}, Extent: 16}
	got = strided.AppendTile(strided.AppendTile(nil, 0, 1), 8, 1)
	want = []Interval{Iv(0, 8), Iv(8, 8)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("back-to-back AppendTile = %v, want %v", got, want)
	}
	if got := contig.AppendTile(dst, 8, 0); !reflect.DeepEqual(got, dst) {
		t.Fatalf("AppendTile with count 0 = %v, want dst unchanged", got)
	}
}

// Property: AppendTile onto any prefix leaves the prefix as it was and
// appends exactly Tile's intervals, tileLen of them.
func TestAppendTileMatchesTile(t *testing.T) {
	f := func(segs []uint16, ext uint8, count uint8, prefix uint8) bool {
		if len(segs) > 5 {
			segs = segs[:5]
		}
		dm := DataMap{}
		var at uint64
		for _, s := range segs {
			// Gaps of 0..3 bytes and lengths of 0..7 make adjacent,
			// empty and separated segments all common.
			at += uint64(s % 4)
			n := uint64(s/4) % 8
			dm.Segments = append(dm.Segments, Segment{Disp: at, Len: n})
			at += n
		}
		// Extents below, at and above the span, so elements overlap,
		// touch and leave gaps.
		dm.Extent = dm.Span() + uint64(ext%5) - 2
		if ext%7 == 0 {
			dm.Extent = 0
		}
		n := int(count%6) - 1
		base := uint64(1000)
		dst := make([]Interval, int(prefix%3))
		for i := range dst {
			dst[i] = Iv(uint64(i)*4, 4)
		}
		dst = append(dst, Iv(900, base-900)) // ends where the tile starts
		before := slices.Clone(dst)
		got := dm.AppendTile(dst, base, n)
		want := dm.Tile(base, n)
		return slices.Equal(got[:len(before)], before) &&
			slices.Equal(got[len(before):], want) &&
			len(want) == dm.tileLen(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// refTile is the element-by-element tiling loop, the reference for
// AppendTile's closed form.
func refTile(dm DataMap, base uint64, count int) []Interval {
	var out []Interval
	for e := 0; e < count; e++ {
		origin := base + uint64(e)*dm.Extent
		for _, s := range dm.Segments {
			iv := Iv(origin+s.Disp, s.Len)
			if n := len(out); n > 0 && out[n-1].Hi == iv.Lo {
				out[n-1].Hi = iv.Hi
				continue
			}
			out = append(out, iv)
		}
	}
	return out
}

// Property: Tile matches the element-by-element loop, including tiles
// that coalesce into one interval (computed in closed form) and bases
// near the top of the address space, where addresses wrap; TileWork is
// 1 exactly for those single-interval tiles and bounds the intervals of
// every other.
func TestTileClosedFormMatchesLoop(t *testing.T) {
	f := func(segs []uint16, ext uint8, count uint8, high bool) bool {
		if len(segs) > 5 {
			segs = segs[:5]
		}
		dm := DataMap{}
		var at uint64
		for _, s := range segs {
			at += uint64(s % 3) // gap 0 chains segments into one run
			n := uint64(s/4) % 8
			dm.Segments = append(dm.Segments, Segment{Disp: at, Len: n})
			at += n
		}
		dm.Extent = dm.Span() + uint64(ext%3) // 0 extra: elements touch
		if len(dm.Segments) > 0 {
			dm.Extent += dm.Segments[0].Disp
		}
		n := int(count % 9)
		base := uint64(1000)
		if high {
			base = ^uint64(0) - 40
		}
		got, want := dm.Tile(base, n), refTile(dm, base, n)
		work := dm.TileWork(n)
		return slices.Equal(got, want) && (len(want) == 1) == (work == 1) && len(want) <= work
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
	// A contiguous run of 2^16 segments tiled 2^31 times is one interval,
	// computed without visiting an element.
	big := DataMap{Extent: 1 << 16}
	for i := uint64(0); i < 1<<16; i++ {
		big.Segments = append(big.Segments, Segment{Disp: i, Len: 1})
	}
	if got := big.Tile(0, 1<<31); !slices.Equal(got, []Interval{Iv(0, 1<<47)}) || big.TileWork(1<<31) != 1 {
		t.Fatalf("Tile of a contiguous run = %v, work %d", got, big.TileWork(1<<31))
	}
}
