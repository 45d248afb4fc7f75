package core

import (
	"repro/internal/model"
	"repro/internal/trace"
)

// TableSides is one RMA operation as the operation table holds it: its
// target, origin and result footprints, or the error each gave.
type TableSides struct {
	ID   trace.ID
	FP   [numSides]model.Footprint
	Errs [numSides]error
}

// WalkOpTable visits the RMA operations of t.Events[lo:] the way the
// region walks do — a cursor positioned at the first of them, then
// stepped one entry per RMA event — and returns what the table holds for
// each.
func WalkOpTable(o OpEpochs, t *trace.Trace, lo int) []TableSides {
	var out []TableSides
	ro, cur := o.rank(t.Rank), -1
	for seq := lo; seq < len(t.Events); seq++ {
		ev := &t.Events[seq]
		if !ev.Kind.IsRMAComm() {
			continue
		}
		if cur < 0 {
			cur = ro.from(int64(seq))
		}
		s := TableSides{ID: trace.ID{Rank: t.Rank, Seq: ro.ops[cur].seq}}
		for side := range numSides {
			s.FP[side], s.Errs[side] = ro.footprint(cur, side)
		}
		out = append(out, s)
		cur++
	}
	return out
}

// LinkedOps follows e's links through the operation table, the order in
// which the within-epoch detector resolves e's operations.
func LinkedOps(o OpEpochs, e *Epoch) []trace.ID {
	var ids []trace.ID
	ro := o.rank(e.Rank)
	for i := e.first; i >= 0; i = ro.ops[i].next {
		ids = append(ids, trace.ID{Rank: e.Rank, Seq: ro.ops[i].seq})
	}
	return ids
}

// ScratchResidue takes a detector scratch from the pool, counts what it
// still holds of an earlier analysis — interned sites and their operand
// strings, operation classes, window-specific rule strings, cached dedup
// keys, and buffered or stored operations with an event — and puts it
// back. A released scratch has none.
func ScratchResidue() int {
	sc := getScratch()
	defer scratchPool.Put(sc)
	n := 0
	for _, o := range sc.intra.ops[:cap(sc.intra.ops)] {
		if o.ev != nil {
			n++
		}
	}
	sr := &sc.cross
	for _, o := range sr.ops[:cap(sr.ops)] {
		if o.ev != nil {
			n++
		}
	}
	if sr.st != nil {
		n += sr.st.Depot().Len()
	}
	if sr.a != nil || sr.col != nil {
		n++
	}
	return n + len(sr.siteOps) + len(sr.classIdx) + len(sr.classRep) + len(sr.localRules) + len(sr.seen)
}

// HoldScratch takes every used detector scratch out of the pool and
// returns a function that puts them back. While they are held, garbage
// collection cannot drop them with the pool, so whatever they pin stays
// reachable.
func HoldScratch() (putBack func()) {
	var held []*detectorScratch
	for {
		sc := getScratch()
		if sc.cross.st == nil { // fresh from New: the pool is empty
			break
		}
		held = append(held, sc)
	}
	return func() {
		for _, sc := range held {
			scratchPool.Put(sc)
		}
	}
}
