package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/model"
	"repro/internal/trace"
)

// detectIntraEpoch finds conflicts inside single epochs (paper §IV-C-3,
// error class 1; Figures 1 and 2a). Within an epoch, issued one-sided
// operations are unordered with everything that follows them up to the
// closing synchronization call, so:
//
//   - a local access overlapping the origin buffer of an issued Get
//     conflicts (the Get may complete at any time up to the close);
//   - a local store overlapping the origin buffer of an issued Put or
//     Accumulate conflicts (the transfer may read the buffer at any time);
//   - two issued operations conflict if their origin buffers overlap with
//     at least one writer, or if their target regions at the same target
//     process overlap incompatibly per Table I.
//
// Local accesses are loads and stores plus the logged buffers of
// point-to-point and collective calls ("all MPI calls performed to a local
// buffer", §IV-C-4), classified by messageBufferClass as for the
// cross-process detector.
//
// checkEpoch keeps the pending operations in two interval indexes, so an
// epoch of m events and n operations costs O(m + n log n + k), where k is
// the number of overlapping pairs the indexes hand back: conflicts, plus
// pairs Table I makes compatible (same-op accumulates, two Gets) and pairs
// with an operation issued later. Each Win_flush or Win_flush_local
// re-sorts the still-pending operations.
//
// Epochs are checked independently (each scan reads only its own rank's
// events), so with Options.Workers > 1 they are checked concurrently and
// merged in epoch order — the same order the serial loop produces.
func (a *Analyzer) detectIntraEpoch() error {
	a.report.EpochsChecked += len(a.epochs)
	scope := func(i int) string {
		e := a.epochs[i]
		return fmt.Sprintf("epoch %d (rank %d, %s)", i, e.Rank, e.Kind)
	}
	return a.parallelCollect(len(a.epochs), "detect_intra", scope, func(i int, col *collector) error {
		return a.checkEpoch(a.epochs[i], col)
	})
}

// localSide is one origin-process buffer an issued operation touches: the
// origin buffer (read by Put/Acc-family, written by Get) and, for fetching
// atomics, the result buffer (written at completion).
type localSide struct {
	fp    model.Footprint
	write bool
	role  BufferRole
}

// issuedOp is one RMA operation of the epoch under check with its
// footprints resolved.
type issuedOp struct {
	ev     *trace.Event
	target model.Footprint
	tw     int32
	// localDone is set by Win_flush_local: the operation's local buffers
	// are complete, so later local accesses are ordered after them.
	localDone bool
	nlocals   int
	locals    [2]localSide // origin, then result for fetching atomics
}

func (o *issuedOp) sides() []localSide { return o.locals[:o.nlocals] }

// resolveOp fills o with ev's local sides, then its target footprint,
// read from entry i of ev's rank in the operation table. A footprint
// that failed to resolve fails it, in that order.
func resolveOp(o *issuedOp, ev *trace.Event, ro *rankOps, i int) error {
	*o = issuedOp{ev: ev, nlocals: 1}
	origin, err := ro.footprint(i, sideOrigin)
	if err != nil {
		return err
	}
	o.locals[0] = localSide{fp: origin, write: ev.Kind == trace.KindGet, role: RoleOrigin}
	if ev.ResultCount > 0 {
		result, err := ro.footprint(i, sideResult)
		if err != nil {
			return err
		}
		o.locals[1] = localSide{fp: result, write: true, role: RoleResult}
		o.nlocals = 2
	}
	if o.target, err = ro.footprint(i, sideTarget); err != nil {
		return err
	}
	o.tw = o.target.Rank
	return nil
}

// Keys of the local-side index. A query by a writer visits both classes
// and a query by a reader only writers, so two reads are never paired.
const (
	keyReader int32 = iota
	keyWriter
)

// ivEntry is one interval of a footprint held in an ivIndex.
type ivEntry struct {
	key    int32 // target world rank, or keyReader/keyWriter
	op     int32 // index of the operation in the epoch
	lo, hi uint64
}

// ivIndex is a set of entries sorted by (key, lo) together with the
// longest entry's length: an entry overlapping [lo, hi) starts after
// lo-maxLen, so a query binary-searches that bound and stops at the
// first entry starting at or after hi.
type ivIndex struct {
	ents   []ivEntry
	maxLen uint64
}

func (x *ivIndex) add(key, op int32, fp model.Footprint) {
	for _, iv := range fp.Intervals {
		if iv.Empty() {
			continue
		}
		x.ents = append(x.ents, ivEntry{key: key, op: op, lo: iv.Lo, hi: iv.Hi})
		x.maxLen = max(x.maxLen, iv.Hi-iv.Lo)
	}
}

// appendOverlaps appends to dst the op of every entry under key that
// overlaps fp and belongs to an operation issued before op `before`.
func (x *ivIndex) appendOverlaps(dst []int32, key int32, fp model.Footprint, before int32) []int32 {
	for _, iv := range fp.Intervals {
		if iv.Empty() {
			continue
		}
		var from uint64 // the lowest start an overlapping entry can have
		if iv.Lo >= x.maxLen {
			from = iv.Lo - x.maxLen + 1
		}
		i := sort.Search(len(x.ents), func(i int) bool {
			e := &x.ents[i]
			return e.key > key || e.key == key && e.lo >= from
		})
		for ; i < len(x.ents) && x.ents[i].key == key && x.ents[i].lo < iv.Hi; i++ {
			if e := &x.ents[i]; e.hi > iv.Lo && e.op < before {
				dst = append(dst, e.op)
			}
		}
	}
	return dst
}

// epochBuffers holds checkEpoch's working state. A collector keeps one,
// so the epochs it checks reuse the buffers instead of allocating anew;
// it comes from a pooled detectorScratch, so later analyses reuse it too.
type epochBuffers struct {
	ops     []issuedOp // the epoch's operations in issue order, resolved up to the next flush
	pending []int32    // issued operations no Win_flush has completed, in issue order
	targets ivIndex    // target footprints, keyed by target world rank
	locals  ivIndex    // origin and result buffers not completed by Win_flush_local
	cands   []int32
	used    int // how many of ops the analysis has filled, for release
}

// release drops the operations' events and footprints, keeping capacity.
func (s *epochBuffers) release() {
	clear(s.ops[:s.used])
	s.ops, s.used = s.ops[:0], 0
}

// reindex rebuilds both indexes from the pending operations and the
// resolved ones not yet issued, s.ops[next:].
func (s *epochBuffers) reindex(next int) {
	s.targets.ents, s.targets.maxLen = s.targets.ents[:0], 0
	s.locals.ents, s.locals.maxLen = s.locals.ents[:0], 0
	for _, i := range s.pending {
		s.index(i)
	}
	for i := next; i < len(s.ops); i++ {
		s.index(int32(i))
	}
	byKeyLo := func(a, b ivEntry) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.lo, b.lo)
	}
	slices.SortFunc(s.targets.ents, byKeyLo)
	slices.SortFunc(s.locals.ents, byKeyLo)
}

func (s *epochBuffers) index(i int32) {
	o := &s.ops[i]
	s.targets.add(o.tw, i, o.target)
	if o.localDone {
		return
	}
	for _, side := range o.sides() {
		key := keyReader
		if side.write {
			key = keyWriter
		}
		s.locals.add(key, i, side.fp)
	}
}

// sortCands orders the gathered candidates by issue order, without
// repeats: the order the pending operations would be scanned in.
func (s *epochBuffers) sortCands() {
	slices.Sort(s.cands)
	s.cands = slices.Compact(s.cands)
}

// nextFlush returns the seq of the first Win_flush or Win_flush_local on
// win after seq, or end if none comes before it.
func nextFlush(t *trace.Trace, win int32, seq, end int64) int64 {
	for seq++; seq < end; seq++ {
		ev := &t.Events[seq]
		if (ev.Kind == trace.KindWinFlush || ev.Kind == trace.KindWinFlushLocal) && ev.Win == win {
			return seq
		}
	}
	return end
}

// checkEpoch finds conflicts inside one epoch, reporting into col.
// Win_flush completes all pending operations to its target (removing them
// from consideration); Win_flush_local completes only their local buffers.
// Between two flushes the operations issued there are resolved up front
// and indexed together with the pending ones; a candidate is only paired
// once it has been issued. Candidates are checked in issue order, so the
// violations, their dedup representatives and counts are those of a scan
// over every pending operation.
func (a *Analyzer) checkEpoch(e *Epoch, col *collector) error {
	t := a.m.Set.Traces[e.Rank]
	end := min(e.End, int64(len(t.Events)))
	s := col.intra
	s.ops, s.pending = slices.Grow(s.ops[:0], len(e.Ops)), s.pending[:0]
	s.used = max(s.used, len(e.Ops))
	next := 0 // e.Ops is in seq order; e.Ops[next] is the next one issued
	// The operations are resolved in e.Ops order by following the
	// epoch's links through the operation table; cur is the table index
	// of e.Ops[len(s.ops)].
	ro, cur := a.opEpoch.rank(e.Rank), int(e.first)
	// A resolution error is held until the scan reaches the failing
	// operation, so errors surface in event order.
	var resolveErr error
	segment := func(seq int64) {
		limit := end
		if len(s.ops) < len(e.Ops) {
			limit = nextFlush(t, e.Win, seq, end)
		}
		for resolveErr == nil && len(s.ops) < len(e.Ops) && e.Ops[len(s.ops)].Seq < limit {
			k := len(s.ops)
			s.ops = s.ops[:k+1]
			if resolveErr = resolveOp(&s.ops[k], &t.Events[e.Ops[k].Seq], ro, cur); resolveErr != nil {
				s.ops = s.ops[:k]
			}
			cur = int(ro.ops[cur].next)
		}
		s.reindex(next)
	}
	flushTargetWorld := func(ev *trace.Event) (int32, bool, error) {
		if ev.Target < 0 {
			return 0, true, nil // flush_all
		}
		tw, err := lockTargetWorld(a.m, ev)
		return tw, false, err
	}

	segment(e.Start)
	for seq := e.Start + 1; seq < end; seq++ {
		ev := &t.Events[seq]
		switch {
		case ev.Kind == trace.KindWinFlush && ev.Win == e.Win:
			tw, all, err := flushTargetWorld(ev)
			if err != nil {
				return err
			}
			kept := s.pending[:0]
			for _, i := range s.pending {
				if !all && s.ops[i].tw != tw {
					kept = append(kept, i)
				}
			}
			s.pending = kept
			segment(seq)
		case ev.Kind == trace.KindWinFlushLocal && ev.Win == e.Win:
			tw, all, err := flushTargetWorld(ev)
			if err != nil {
				return err
			}
			for _, i := range s.pending {
				if all || s.ops[i].tw == tw {
					s.ops[i].localDone = true
				}
			}
			segment(seq)
		case ev.Kind.IsLocalAccess():
			a.checkLocalInEpoch(col, e, ev, model.AccessFootprint(ev), ev.Kind == trace.KindStore, int32(next))
		case next < len(e.Ops) && e.Ops[next].Seq == seq:
			if next == len(s.ops) {
				return resolveErr
			}
			a.checkIssue(col, e, int32(next))
			s.pending = append(s.pending, int32(next))
			next++
		default:
			if cls, ok := a.messageBufferClass(ev); ok {
				fp, err := a.m.OriginFootprint(ev)
				if err != nil {
					return err
				}
				a.checkLocalInEpoch(col, e, ev, fp, cls == OpStore, int32(next))
			}
		}
	}
	return nil
}

// checkLocalInEpoch checks a local access of footprint acc against the
// local buffers of the operations issued before op `issued`.
func (a *Analyzer) checkLocalInEpoch(col *collector, e *Epoch, ev *trace.Event, acc model.Footprint, accWrite bool, issued int32) {
	s := col.intra
	if len(s.pending) == 0 {
		return
	}
	s.cands = s.locals.appendOverlaps(s.cands[:0], keyWriter, acc, issued)
	if accWrite {
		s.cands = s.locals.appendOverlaps(s.cands, keyReader, acc, issued)
	}
	s.sortCands()
	for _, c := range s.cands {
		o := &s.ops[c]
		for _, side := range o.sides() {
			iv, overlap := acc.Overlaps(side.fp)
			if !overlap || (!accWrite && !side.write) {
				continue
			}
			a.addIntra(col, e, Rule{Family: RulePendingBuffer, A: o.ev.Kind, B: ev.Kind, ARole: side.role},
				&Violation{A: *o.ev, B: *ev, Win: e.Win, Overlap: iv})
		}
	}
}

// checkIssue checks operation i, being issued, against the pending
// operations whose local buffers or target bytes it overlaps.
func (a *Analyzer) checkIssue(col *collector, e *Epoch, i int32) {
	s := col.intra
	if len(s.pending) == 0 {
		return
	}
	n := &s.ops[i]
	s.cands = s.cands[:0]
	for _, ns := range n.sides() {
		s.cands = s.locals.appendOverlaps(s.cands, keyWriter, ns.fp, i)
		if ns.write {
			s.cands = s.locals.appendOverlaps(s.cands, keyReader, ns.fp, i)
		}
	}
	s.cands = s.targets.appendOverlaps(s.cands, n.tw, n.target, i)
	s.sortCands()
	ev := n.ev
	for _, c := range s.cands {
		o := &s.ops[c]
		// Local-side pairs: conflict when overlapping with at least one
		// writer, unless the older op's local buffers were completed by a
		// flush_local.
		if !o.localDone {
			for _, os := range o.sides() {
				for _, ns := range n.sides() {
					if !os.write && !ns.write {
						continue
					}
					if iv, ok := ns.fp.Overlaps(os.fp); ok {
						a.addIntra(col, e, Rule{Family: RuleBufferBuffer, A: o.ev.Kind, B: ev.Kind, ARole: os.role, BRole: ns.role},
							&Violation{A: *o.ev, B: *ev, Win: e.Win, Overlap: iv})
					}
				}
			}
		}
		// Target-target at the same target process.
		if o.tw == n.tw {
			if iv, ok := n.target.Overlaps(o.target); ok {
				if EffectiveCompat(o.ev, ev) != Both {
					a.addIntra(col, e, Rule{Family: RuleTargetTarget, A: o.ev.Kind, B: ev.Kind},
						&Violation{A: *o.ev, B: *ev, Win: e.Win, Overlap: iv})
				}
			}
		}
	}
}
