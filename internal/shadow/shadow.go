// Package shadow implements the shadow-memory access store behind the
// fast cross-process detection engine (FastTrack, Flanagan & Freund,
// PLDI 2009, adapted to MC-Checker's epoch model). Instead of matching
// every pair of one-sided operations in a (window, target) vector, the
// detector inserts each access into an interval-keyed shadow map and
// asks the map for exactly the stored accesses that can still conflict:
//
//   - the byte ranges of a vector are partitioned into shadow cells;
//     every member's footprint is split across the cells it covers, so a
//     cell interval is a subset of each of its members' footprints and
//     any overlap between a query and a cell implies overlap with every
//     member in it — overlap filtering costs one sorted-slice walk
//     instead of a full vector scan;
//   - the cover is deferred: Insert only queues a member's intervals on
//     its vector, and the queue is merged into the cells with one sweep
//     when a query could see a queued member (some queued group
//     classifies ModeOverlap). The detector inserts rank-major and
//     same-rank groups classify ModeSkip, so a vector is merged about
//     once per origin rank instead of shifting its sorted cell slice on
//     every insert;
//   - within a cell, members are grouped per (origin rank, operation
//     class). A group either matches or is skipped wholesale (same-rank
//     pairs, compatibility-matrix BOTH cells), the analogue of
//     FastTrack's same-epoch fast path; a group holds a single inlined
//     access (the common case — FastTrack's one-epoch summary) and
//     spills to an ordered access list only on sharing (the read-share
//     vector fallback);
//   - each access carries the vector clock of its DAG segment. Along one
//     rank's program order those clocks are elementwise monotone
//     non-decreasing, so the members of a group that are concurrent with
//     a query form one contiguous range found by two binary searches —
//     no per-member happens-before calls;
//   - a member is a few words (payload, seq, clock reference). Sites are
//     the caller's business: the detector interns them in a Depot (see
//     depot.go) only for accesses that actually match.
//
// The store knows nothing about MPI semantics: the caller classifies
// groups (skip / overlap-filtered / unconditional) and receives matches
// as opaque payloads, in exactly the insertion order a pairwise scan of
// the vector would have visited them — which is what lets the driving
// detector reproduce the pairwise engine's reports byte for byte. One
// store serves a sequence of regions: Reset empties it and keeps its
// memory.
package shadow

import (
	"slices"
	"sort"

	"repro/internal/memory"
)

// VectorKey names one access vector: a window and the world rank whose
// memory the stored operations target.
type VectorKey struct {
	Win    int32
	Target int32
}

// Access describes one operation inserted into the store.
type Access struct {
	// Payload is an opaque caller value (typically an index into a
	// caller-side slice of rich per-operation state) handed back on match.
	Payload int32
	// Rank is the origin rank of the access; groups never mix ranks.
	Rank int32
	// Class is a caller-interned operation class; all skip/match
	// decisions the caller makes in a Query classify callback must be a
	// pure function of (Rank, Class) plus the query itself.
	Class int32
	// Seq is the event sequence number within the origin rank.
	Seq int64
	// Clock is the vector clock of the access's DAG segment, read-only.
	// Successive inserts from one rank must carry elementwise monotone
	// non-decreasing clocks (true of segment clocks along program order).
	Clock []int64
	// Target is the access's byte footprint: ascending, disjoint
	// intervals. May be empty; the member is then reachable only through
	// ModeAll group matches, never through overlap filtering. Read
	// during the Insert call only.
	Target []memory.Interval
}

// Query describes the probing operation of a Query call.
type Query struct {
	Rank  int32
	Seq   int64
	Clock []int64 // segment clock of the query event, read-only
}

// Mode is a caller's verdict on one (rank, class) group for one query.
type Mode uint8

const (
	// ModeSkip: no member of the group can conflict (same rank, or the
	// compatibility matrix permits the combination outright).
	ModeSkip Mode = iota
	// ModeOverlap: members conflict when concurrent and byte-overlapping
	// the query footprint.
	ModeOverlap
	// ModeAll: every concurrent member conflicts, overlap or not (the
	// MPI-2.2 local-store rule).
	ModeAll
)

type member struct {
	payload int32
	seq     int64
	clock   []int64
	stamp   uint64
}

type group struct {
	rank  int32
	class int32
	all   []int32 // arena indexes, ascending seq (same rank throughout)

	// Per-query classification cache: classify runs once per group per
	// Query call, however many cells the group appears in.
	qstamp uint64
	qmode  Mode

	queued bool // listed in its vector's pendGroups
}

// cellGroup is one group's slice of a cell. The single-member case is
// inlined (solo) — FastTrack's one-epoch summary — and spills to an
// index list only when a second member of the same (rank, class) lands
// on the same bytes.
type cellGroup struct {
	g    *group
	solo int32
	idxs []int32 // nil while the group has one member in this cell
}

func (cg *cellGroup) size() int {
	if cg.idxs == nil {
		return 1
	}
	return len(cg.idxs)
}

func (cg *cellGroup) at(i int) int32 {
	if cg.idxs == nil {
		return cg.solo
	}
	return cg.idxs[i]
}

func (cg *cellGroup) add(id int32) {
	if cg.idxs == nil {
		cg.idxs = append(make([]int32, 0, 4), cg.solo, id)
		return
	}
	cg.idxs = append(cg.idxs, id)
}

// cell is one byte interval [lo, hi) of a vector with the members whose
// footprints cover it, partitioned by group. Each entries backing array
// belongs to exactly one live cell.
type cell struct {
	lo, hi  uint64
	entries []cellGroup
}

// pendingCover is one queued interval of an inserted member, waiting to
// be merged into its vector's cells.
type pendingCover struct {
	lo, hi uint64
	g      *group
	id     int32
}

type groupKey struct {
	rank  int32
	class int32
}

type vector struct {
	cells  []cell // sorted by lo, pairwise disjoint; excludes pending
	groups []*group
	gindex map[groupKey]*group

	pending    []pendingCover // inserted since the last merge, ascending id
	pendGroups []*group       // distinct groups of pending
}

// slab hands out elements from chunks that never move, so pointers and
// subslices into it stay valid until reset, and a reset store reuses its
// largest chunk.
type slab[T any] struct{ chunk []T }

func (s *slab[T]) take(n int) []T {
	if len(s.chunk)+n > cap(s.chunk) {
		s.chunk = make([]T, 0, max(2*cap(s.chunk), n, 64))
	}
	i := len(s.chunk)
	s.chunk = s.chunk[:i+n]
	out := s.chunk[i : i+n : i+n]
	clear(out)
	return out
}

func (s *slab[T]) reset() { s.chunk = s.chunk[:0] }

// Store is the shadow map of one concurrent region: every vector's cell
// partition plus a shared member arena. Not safe for concurrent use;
// the detector keeps one store per worker and resets it per region.
type Store struct {
	depot   *Depot
	vectors map[VectorKey]*vector
	free    []*vector // vectors emptied by Reset
	arena   []member
	qstamp  uint64

	groups  slab[group]
	entries slab[cellGroup]

	// Scratch reused across queries and merges.
	matches []int32
	starts  []uint64
	ends    []uint64
	mid     []cell
}

// NewStore returns an empty store. depot may be nil when the caller does
// its own site bookkeeping.
func NewStore(depot *Depot) *Store {
	return &Store{depot: depot, vectors: make(map[VectorKey]*vector)}
}

// Depot returns the depot the store was built with (may be nil).
func (s *Store) Depot() *Depot { return s.depot }

// Reset empties the store for the next region, keeping its memory, and
// reserves room for n accesses. The depot is kept as it is. A reset
// store holds no reference to a clock it was given.
func (s *Store) Reset(n int) {
	for _, v := range s.vectors {
		clear(v.cells)
		v.cells = v.cells[:0]
		v.groups = v.groups[:0]
		clear(v.gindex)
		v.pending = v.pending[:0]
		v.pendGroups = v.pendGroups[:0]
		s.free = append(s.free, v)
	}
	clear(s.vectors)
	clear(s.arena)
	s.arena = slices.Grow(s.arena[:0], n)
	s.groups.reset()
	s.entries.reset()
}

// Members returns the total number of inserted accesses.
func (s *Store) Members() int { return len(s.arena) }

// Cells returns the number of shadow cells of one vector, after merging
// any queued inserts.
func (s *Store) Cells(key VectorKey) int {
	v := s.vectors[key]
	if v == nil {
		return 0
	}
	s.merge(v)
	return len(v.cells)
}

// Groups returns the number of (rank, class) groups of one vector.
func (s *Store) Groups(key VectorKey) int {
	if v := s.vectors[key]; v != nil {
		return len(v.groups)
	}
	return 0
}

// Insert adds an access to a vector. Its intervals are queued and join
// the vector's cells at the next merge. Accesses must be inserted in the
// global order the pairwise detector would have scanned them
// (rank-major, ascending seq within a rank): Query reproduces exactly
// that order on match.
func (s *Store) Insert(key VectorKey, a Access) {
	v := s.vectors[key]
	if v == nil {
		if n := len(s.free); n > 0 {
			v = s.free[n-1]
			s.free = s.free[:n-1]
		} else {
			v = &vector{gindex: make(map[groupKey]*group)}
		}
		s.vectors[key] = v
	}
	gk := groupKey{rank: a.Rank, class: a.Class}
	g := v.gindex[gk]
	if g == nil {
		g = &s.groups.take(1)[0]
		g.rank, g.class = a.Rank, a.Class
		v.gindex[gk] = g
		v.groups = append(v.groups, g)
	}
	id := int32(len(s.arena))
	s.arena = append(s.arena, member{payload: a.Payload, seq: a.Seq, clock: a.Clock})
	g.all = append(g.all, id)
	for _, iv := range a.Target {
		if iv.Lo >= iv.Hi {
			continue
		}
		v.pending = append(v.pending, pendingCover{lo: iv.Lo, hi: iv.Hi, g: g, id: id})
		if !g.queued {
			g.queued = true
			v.pendGroups = append(v.pendGroups, g)
		}
	}
}

// merge folds a vector's queued intervals into its cells. The result is
// the partition a per-insert cover would have built: the covered bytes
// cut at every inserted endpoint. Only the old cells between the lowest
// and highest queued endpoint are rebuilt, by one sweep into scratch;
// the cells after them shift once per merge, not once per insert.
func (s *Store) merge(v *vector) {
	pend := v.pending
	if len(pend) == 0 {
		return
	}
	starts, ends := s.starts[:0], s.ends[:0]
	for _, p := range pend {
		starts = append(starts, p.lo)
		ends = append(ends, p.hi)
	}
	slices.Sort(starts)
	slices.Sort(ends)

	cells := v.cells
	n := len(cells)
	i0 := sort.Search(n, func(i int) bool { return cells[i].hi > starts[0] })
	i1 := sort.Search(n, func(i int) bool { return cells[i].lo >= ends[len(ends)-1] })
	mid := s.sweep(cells[i0:i1], starts, ends)
	// Queued members join their pieces in ascending arena id, after the
	// old members, so each cellGroup's list stays in ascending seq for
	// concurrentRangeCell.
	for _, p := range pend {
		j := sort.Search(len(mid), func(j int) bool { return mid[j].lo >= p.lo })
		for ; j < len(mid) && mid[j].lo < p.hi; j++ {
			mid[j].entries = s.addEntry(mid[j].entries, p.g, p.id)
		}
	}
	grow := len(mid) - (i1 - i0) // a rebuilt cell yields at least one piece
	cells = slices.Grow(cells, grow)[:n+grow]
	copy(cells[i1+grow:], cells[i1:n])
	copy(cells[i0:], mid)
	v.cells = cells

	for _, g := range v.pendGroups {
		g.queued = false
	}
	v.pendGroups = v.pendGroups[:0]
	v.pending = pend[:0]
	clear(mid)
	s.mid, s.starts, s.ends = mid[:0], starts[:0], ends[:0]
}

// sweep cuts old (sorted, disjoint cells) at every queued endpoint
// (starts and ends, each sorted) and returns, in address order, every
// piece that an old cell or a queued interval covers. A piece of an old
// cell starts with the old cell's members.
func (s *Store) sweep(old []cell, starts, ends []uint64) []cell {
	out := s.mid[:0]
	x := starts[0]
	if len(old) > 0 && old[0].lo < x {
		x = old[0].lo
	}
	oi, si, ei := 0, 0, 0
	for {
		for si < len(starts) && starts[si] <= x {
			si++
		}
		for ei < len(ends) && ends[ei] <= x {
			ei++
		}
		// The piece from x ends at the next old cell bound or endpoint.
		inOld := oi < len(old) && old[oi].lo <= x
		y := ^uint64(0)
		switch {
		case inOld:
			y = old[oi].hi
		case oi < len(old):
			y = old[oi].lo
		}
		if si < len(starts) {
			y = min(y, starts[si])
		}
		if ei < len(ends) {
			y = min(y, ends[ei])
		} else if !inOld && oi == len(old) {
			return out
		}
		switch {
		case inOld && y == old[oi].hi:
			out = append(out, cell{lo: x, hi: y, entries: old[oi].entries}) // the last piece keeps the original
			oi++
		case inOld:
			out = append(out, cell{lo: x, hi: y, entries: s.cloneEntries(old[oi].entries)})
		case si > ei: // some queued interval covers x
			out = append(out, cell{lo: x, hi: y})
		}
		x = y
	}
}

// addEntry appends member id of group g to a cell's entries; a cell's
// first group comes from the entries slab, so a fresh cell allocates
// nothing.
func (s *Store) addEntry(es []cellGroup, g *group, id int32) []cellGroup {
	for i := range es {
		if es[i].g == g {
			es[i].add(id)
			return es
		}
	}
	if len(es) == 0 {
		es = s.entries.take(1)
		es[0] = cellGroup{g: g, solo: id}
		return es
	}
	return append(es, cellGroup{g: g, solo: id})
}

// cloneEntries copies a cell's group slices for a split: the index lists
// share backing arrays capped at their current length, so a later append
// to either half reallocates instead of clobbering the other.
func (s *Store) cloneEntries(es []cellGroup) []cellGroup {
	out := s.entries.take(len(es))
	for i, e := range es {
		e.idxs = e.idxs[:len(e.idxs):len(e.idxs)]
		out[i] = e
	}
	return out
}

// concurrentRange returns the half-open index range of list whose
// members are concurrent with q. list holds arena indexes of one rank's
// accesses in ascending seq order; rank is that origin rank. A member m
// is concurrent iff neither happens-before holds:
//
//	m before q  ⇔  q.Clock[rank] >= m.seq   — fails on a suffix of list;
//	q before m  ⇔  m.clock[q.Rank] >= q.Seq — holds on a suffix of list
//	                                          (clocks are monotone).
//
// The intersection of the first suffix and the second's complement (a
// prefix) is one contiguous range.
func (s *Store) concurrentRange(list []int32, rank int32, q Query) (int, int) {
	known := q.Clock[rank]
	lo := sort.Search(len(list), func(i int) bool { return s.arena[list[i]].seq > known })
	hi := sort.Search(len(list), func(i int) bool { return s.arena[list[i]].clock[q.Rank] >= q.Seq })
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Query probes one vector with a footprint and streams back the stored
// accesses that match, in vector insertion order. classify is called at
// most once per (rank, class) group and decides how the group matches;
// emit receives each matching member's payload exactly once per Query
// call, even when its footprint spans several probed cells (per-member
// stamps dedup the cell walk). Queued inserts are merged first when any
// of their groups classifies ModeOverlap. fp may differ from the probing
// event's own footprint slice passed at insert time; it is only read.
func (s *Store) Query(key VectorKey, q Query, fp []memory.Interval,
	classify func(rank, class int32) Mode, emit func(payload int32)) {
	v := s.vectors[key]
	if v == nil {
		return
	}
	s.qstamp++
	s.matches = s.matches[:0]

	mode := func(g *group) Mode {
		if g.qstamp != s.qstamp {
			g.qstamp = s.qstamp
			g.qmode = classify(g.rank, g.class)
		}
		return g.qmode
	}
	collect := func(id int32) {
		m := &s.arena[id]
		if m.stamp == s.qstamp {
			return
		}
		m.stamp = s.qstamp
		s.matches = append(s.matches, id)
	}

	for _, g := range v.pendGroups {
		if mode(g) == ModeOverlap {
			s.merge(v)
			break
		}
	}

	// Unconditional groups: the whole concurrent range of the vector-wide
	// list matches, byte overlap or not.
	for _, g := range v.groups {
		if mode(g) != ModeAll {
			continue
		}
		lo, hi := s.concurrentRange(g.all, g.rank, q)
		for _, id := range g.all[lo:hi] {
			collect(id)
		}
	}

	// Overlap-filtered groups: walk only the cells the query footprint
	// touches. A cell interval is a subset of each member's footprint, so
	// touching a cell proves overlap with every member in it.
	for _, iv := range fp {
		if iv.Lo >= iv.Hi {
			continue
		}
		i := sort.Search(len(v.cells), func(i int) bool { return v.cells[i].hi > iv.Lo })
		for ; i < len(v.cells) && v.cells[i].lo < iv.Hi; i++ {
			c := &v.cells[i]
			for j := range c.entries {
				cg := &c.entries[j]
				if mode(cg.g) != ModeOverlap {
					continue
				}
				lo, hi := s.concurrentRangeCell(cg, q)
				for k := lo; k < hi; k++ {
					collect(cg.at(k))
				}
			}
		}
	}

	// Arena indexes increase in insertion order, so sorting the matches
	// restores exactly the order a pairwise vector scan reports pairs in.
	slices.Sort(s.matches)
	for _, id := range s.matches {
		emit(s.arena[id].payload)
	}
}

// concurrentRangeCell is concurrentRange over a cellGroup's (possibly
// inlined) member list.
func (s *Store) concurrentRangeCell(cg *cellGroup, q Query) (int, int) {
	if cg.idxs == nil {
		m := &s.arena[cg.solo]
		if m.seq > q.Clock[cg.g.rank] && m.clock[q.Rank] < q.Seq {
			return 0, 1
		}
		return 0, 0
	}
	return s.concurrentRange(cg.idxs, cg.g.rank, q)
}
