package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/trace"
)

// OpEpochs is the operation table of one analysis: one entry per RMA
// operation, holding the epoch that issued it, its target world rank and
// its three footprints — target, origin and result — laid out in one
// interval arena per rank. ExtractEpochs builds it in the scan that
// matches the epochs, so each footprint is resolved and tiled once per
// analysis however many detectors read it. A footprint that fails to
// resolve keeps its error, which a detector returns where it needs that
// footprint, so errors surface where and in the order they did when
// each detector resolved footprints itself.
//
// Per rank the entries are in seq order. The detectors walk them with
// cursors: a region walk positions once per rank and then steps one
// entry per RMA event, and an epoch follows its own operations through
// the links the table keeps. Of finds a single operation by binary
// search.
type OpEpochs struct {
	ranks []rankOps
}

// rankOps is one rank's part of the operation table.
type rankOps struct {
	rank int32
	ops  []opEntry
	ivs  []memory.Interval // the footprint arena
	errs [][numSides]error // resolution errors of the entries whose fail is set
}

// The footprints of an operation, in arena order.
const (
	sideTarget = iota
	sideOrigin
	sideResult
	numSides
)

// opEntry is one RMA operation of a rank.
type opEntry struct {
	seq   int64
	epoch *Epoch
	tw    int32 // target world rank
	next  int32 // table index of the epoch's next operation, -1 after its last
	// end[s] is where footprint s ends in the arena. Each footprint
	// starts where the one before it ends; the target starts where the
	// previous entry's result ends.
	end  [numSides]int32
	fail int32 // 1 + index into errs when a footprint failed to resolve, else 0
}

// Of returns the epoch that issued RMA operation id, or nil when id is not
// an RMA operation of the extracted trace.
func (o OpEpochs) Of(id trace.ID) *Epoch {
	if id.Rank < 0 || int(id.Rank) >= len(o.ranks) {
		return nil
	}
	r := &o.ranks[id.Rank]
	if i := r.from(id.Seq); i < len(r.ops) && r.ops[i].seq == id.Seq {
		return r.ops[i].epoch
	}
	return nil
}

// rank returns rank r's part of the table.
func (o OpEpochs) rank(r int32) *rankOps { return &o.ranks[r] }

// from returns the table index of the first operation at or after seq:
// where a cursor over a region that starts at seq begins.
func (r *rankOps) from(seq int64) int {
	return sort.Search(len(r.ops), func(i int) bool { return r.ops[i].seq >= seq })
}

// footprint returns side s of operation i, or the error resolving it
// gave. The intervals alias the arena; callers must not modify them.
func (r *rankOps) footprint(i, s int) (model.Footprint, error) {
	e := &r.ops[i]
	if e.fail > 0 {
		if err := r.errs[e.fail-1][s]; err != nil {
			return model.Footprint{}, err
		}
	}
	var lo int32
	switch {
	case s > 0:
		lo = e.end[s-1]
	case i > 0:
		lo = r.ops[i-1].end[numSides-1]
	}
	rank := r.rank
	if s == sideTarget {
		rank = e.tw
	}
	hi := e.end[s]
	return model.Footprint{Rank: rank, Intervals: r.ivs[lo:hi:hi]}, nil
}

// linkEpochs threads each epoch's operations into a list through the
// entries' next links and fills the epochs' Ops from one array sized to
// the rank's operations.
func (r *rankOps) linkEpochs(store []Epoch) {
	for i := len(r.ops) - 1; i >= 0; i-- {
		e := r.ops[i].epoch
		r.ops[i].next = e.first
		e.first = int32(i)
	}
	ids := make([]trace.ID, len(r.ops))
	off := 0
	for k := range store {
		e := &store[k]
		start := off
		for i := e.first; i >= 0; i = r.ops[i].next {
			ids[off] = trace.ID{Rank: r.rank, Seq: r.ops[i].seq}
			off++
		}
		if off > start {
			e.Ops = ids[start:off:off]
		}
	}
}

// ivScratch holds one rank's footprints while they are resolved; the
// rank's arena is then copied out of it at its final size, so the arena
// is allocated once and each footprint resolved once.
var ivScratch = sync.Pool{New: func() any { return new([]memory.Interval) }}

// maxRankIntervals bounds one rank's footprint arena (64 MiB of
// intervals). model.MaxTileWork bounds each footprint, but a trace can
// repeat operations without end, so the arena needs its own bound; a
// rank past it fails the extraction. The arena indexes fit an int32
// with room to spare.
const maxRankIntervals = 1 << 22

// resolve lays out every entry's footprints. An operation's three
// footprints resolve independently, each keeping its own error.
func (r *rankOps) resolve(m *model.Model, t *trace.Trace) error {
	buf := ivScratch.Get().(*[]memory.Interval)
	defer ivScratch.Put(buf)
	ivs := (*buf)[:0]
	for i := range r.ops {
		e := &r.ops[i]
		ev := &t.Events[e.seq]
		var errs [numSides]error
		ivs, _, errs[sideTarget] = m.AppendTargetFootprint(ivs, ev)
		e.end[sideTarget] = int32(len(ivs))
		ivs, errs[sideOrigin] = m.AppendOriginFootprint(ivs, ev)
		e.end[sideOrigin] = int32(len(ivs))
		ivs, errs[sideResult] = m.AppendResultFootprint(ivs, ev)
		e.end[sideResult] = int32(len(ivs))
		if len(ivs) > maxRankIntervals {
			return fmt.Errorf("core: rank %d: RMA operation footprints exceed %d intervals", r.rank, maxRankIntervals)
		}
		if errs != [numSides]error{} {
			r.errs = append(r.errs, errs)
			e.fail = int32(len(r.errs))
		}
	}
	r.ivs = slices.Clone(ivs)
	*buf = ivs[:0]
	return nil
}
