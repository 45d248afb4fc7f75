package memory

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Segment is one contiguous piece of a data-map: Len bytes starting Disp
// bytes from the element origin (paper §IV-C-1c).
type Segment struct {
	Disp uint64
	Len  uint64
}

// DataMap describes the byte layout of one element of an MPI datatype as a
// sorted list of disjoint segments plus the type extent (the stride between
// consecutive elements when a count > 1 is used).
//
// MPI_INT is {Segments: [{0,4}], Extent: 4}. A derived type of two ints
// separated by an 8-byte gap is {Segments: [{0,4},{12,4}], Extent: 16}.
type DataMap struct {
	Segments []Segment
	Extent   uint64
}

// Contig returns the data-map of a contiguous type of n bytes.
func Contig(n uint64) DataMap {
	if n == 0 {
		return DataMap{}
	}
	return DataMap{Segments: []Segment{{Disp: 0, Len: n}}, Extent: n}
}

// Size returns the number of bytes actually touched by one element
// (the sum of segment lengths, not the extent).
func (dm DataMap) Size() uint64 {
	var n uint64
	for _, s := range dm.Segments {
		n += s.Len
	}
	return n
}

// Span returns the distance from the first touched byte to one past the
// last touched byte of a single element.
func (dm DataMap) Span() uint64 {
	if len(dm.Segments) == 0 {
		return 0
	}
	first := dm.Segments[0].Disp
	last := dm.Segments[len(dm.Segments)-1]
	return last.Disp + last.Len - first
}

// Normalize sorts segments by displacement and merges adjacent or
// overlapping ones, returning a canonical equivalent map.
func (dm DataMap) Normalize() DataMap {
	if len(dm.Segments) == 0 {
		return DataMap{Extent: dm.Extent}
	}
	segs := make([]Segment, len(dm.Segments))
	copy(segs, dm.Segments)
	sort.Slice(segs, func(i, j int) bool { return segs[i].Disp < segs[j].Disp })
	out := segs[:1]
	for _, s := range segs[1:] {
		top := &out[len(out)-1]
		if s.Disp <= top.Disp+top.Len { // adjacent or overlapping
			end := s.Disp + s.Len
			if end > top.Disp+top.Len {
				top.Len = end - top.Disp
			}
			continue
		}
		out = append(out, s)
	}
	ext := dm.Extent
	if ext == 0 {
		ext = out[len(out)-1].Disp + out[len(out)-1].Len
	}
	return DataMap{Segments: out, Extent: ext}
}

// Tile instantiates count elements of the datatype at simulated address
// base and returns the touched byte intervals in ascending order.
// Intervals of adjacent elements are coalesced when contiguous.
func (dm DataMap) Tile(base uint64, count int) []Interval {
	return dm.AppendTile(nil, base, count)
}

// AppendTile appends the intervals Tile(base, count) returns to dst and
// returns the extended slice. The new intervals coalesce with each other
// only, never with an entry already in dst. A tile that coalesces into
// one interval is computed in closed form; any other takes
// TileWork(count) steps.
func (dm DataMap) AppendTile(dst []Interval, base uint64, count int) []Interval {
	if count <= 0 || len(dm.Segments) == 0 {
		return dst
	}
	n := dm.tileLen(count)
	if n == 1 {
		first, last := dm.Segments[0], dm.Segments[len(dm.Segments)-1]
		return append(dst, Interval{
			Lo: base + first.Disp,
			Hi: base + uint64(count-1)*dm.Extent + last.Disp + last.Len,
		})
	}
	dst = slices.Grow(dst, n)
	first := len(dst)
	for e := 0; e < count; e++ {
		origin := base + uint64(e)*dm.Extent
		for _, s := range dm.Segments {
			iv := Iv(origin+s.Disp, s.Len)
			if n := len(dst); n > first && dst[n-1].Hi == iv.Lo {
				dst[n-1].Hi = iv.Hi // coalesce
				continue
			}
			dst = append(dst, iv)
		}
	}
	return dst
}

// tileLen returns the number of intervals Tile(base, count) returns,
// whatever base is, in time linear in the number of segments: an
// interval ends where the next begins exactly when its segment ends where
// the next segment (of the same element, or of the next one a stride
// later) starts, and that test does not depend on base.
func (dm DataMap) tileLen(count int) int {
	k := len(dm.Segments)
	if count <= 0 || k == 0 {
		return 0
	}
	per := k // intervals per element
	for i := 1; i < k; i++ {
		if prev := dm.Segments[i-1]; prev.Disp+prev.Len == dm.Segments[i].Disp {
			per--
		}
	}
	n := count * per
	if last := dm.Segments[k-1]; last.Disp+last.Len == dm.Extent+dm.Segments[0].Disp {
		n -= count - 1 // each element's last interval runs into the next one's first
	}
	return n
}

// TileWork returns the steps AppendTile(dst, base, count) takes whatever
// base is: none for an empty tile, one for a tile that coalesces into a
// single interval, and one per segment of every element otherwise. It
// bounds the intervals AppendTile appends too.
func (dm DataMap) TileWork(count int) int {
	switch n := dm.tileLen(count); n {
	case 0, 1:
		return n
	}
	return count * len(dm.Segments)
}

// TileBytes returns Size()*count, the bytes moved by a count-element access.
func (dm DataMap) TileBytes(count int) uint64 {
	if count <= 0 {
		return 0
	}
	return dm.Size() * uint64(count)
}

// Offsets returns, element by element, the flattened byte offsets (relative
// to the access base) touched by count elements, in transfer order. The
// transfer order of MPI pack/unpack is segment order within each element.
// The result has length TileBytes(count). Intended for small datatypes;
// the simulator uses it to move bytes between packed and typed layouts.
func (dm DataMap) Offsets(count int) []uint64 {
	out := make([]uint64, 0, dm.TileBytes(count))
	for e := 0; e < count; e++ {
		origin := uint64(e) * dm.Extent
		for _, s := range dm.Segments {
			for b := uint64(0); b < s.Len; b++ {
				out = append(out, origin+s.Disp+b)
			}
		}
	}
	return out
}

func (dm DataMap) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, s := range dm.Segments {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "(%d,%d)", s.Disp, s.Len)
	}
	fmt.Fprintf(&b, "} ext=%d", dm.Extent)
	return b.String()
}

// TilesOverlap reports whether the byte sets of (a at baseA × countA) and
// (b at baseB × countB) intersect, and returns the first overlapping
// interval pair's intersection if so.
func TilesOverlap(a DataMap, baseA uint64, countA int, b DataMap, baseB uint64, countB int) (Interval, bool) {
	ivA := a.Tile(baseA, countA)
	ivB := b.Tile(baseB, countB)
	// Merge-scan the two sorted interval lists.
	i, j := 0, 0
	for i < len(ivA) && j < len(ivB) {
		if x, ok := ivA[i].Intersect(ivB[j]); ok {
			return x, true
		}
		if ivA[i].Hi <= ivB[j].Hi {
			i++
		} else {
			j++
		}
	}
	return Interval{}, false
}
