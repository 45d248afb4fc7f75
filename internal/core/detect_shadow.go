package core

// The cross-process detector (paper §IV-C-4, error class 2; Figures
// 2b–2d): per concurrent region, every one-sided operation is recorded in
// the vector of its (window, target process) and checked against the
// operations stored there; then every local access of each target process
// is checked against the stored remote operations — the paper's two-step
// linear approach rather than examining every pair of operations in the
// region (QuadraticCrossProcess, quadratic.go, is that baseline). The
// vectors live in internal/shadow's shadow-memory store, so a check costs
// interval-keyed cell lookups plus vector-clock binary searches instead of
// a scan of the vector (FastTrack, Flanagan & Freund, PLDI 2009,
// transposed to MC-Checker's epoch model). A pairwise scan of each vector,
// kept in the tests as the oracle, must render the same reports byte for
// byte — every violation, dedup count, representative instance and
// witness chain.
//
// How the rules map onto the store:
//
//   - group classification replaces per-pair guards. Stored accesses are
//     grouped by (origin rank, operation class) where a class interns
//     (Kind, AccOp, TargetType) — exactly the fields EffectiveCompat and
//     Table read — so "same rank" and "compatibility BOTH" skip whole
//     groups once per query instead of once per pair;
//   - the DAG Concurrent() calls become the store's concurrent-range
//     binary searches over segment clocks (dag.ClockRef);
//   - byte-overlap guards become shadow-cell membership: a query only
//     walks the cells its footprint touches, and a cell interval is a
//     subset of every member's footprint, so touching one proves
//     overlap. The MPI-2.2 no-overlap store rule (Error × local store)
//     maps to ModeAll, walking the group's full concurrent range;
//   - the store emits matches in vector insertion order, which keeps the
//     first recorded instance of every dedup key — and therefore the
//     surviving representative fields and witness — those of a scan of
//     the vector in program order;
//   - a repeated instance of a dedup key is recognised by its site pair,
//     window and rule (crossKey) and only bumps the count of the
//     violation the collector holds; the key string, the Violation and
//     its witness closure are built once per key.
import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/dag"
	"repro/internal/model"
	"repro/internal/shadow"
	"repro/internal/trace"
)

// opClassKey interns the event fields that all group-level decisions
// (EffectiveCompat, OpOf/Table) are pure functions of.
type opClassKey struct {
	kind       trace.Kind
	accOp      trace.AccOp
	targetType int32
}

// crossKey stands for a dedup key without its string: two access sites
// (each fixing its kind and source location), the window, the rule family
// and, for a local access, its class — with the sites' kinds and the
// window, everything the rule text names.
type crossKey struct {
	a, b  shadow.SiteID
	win   int32
	fam   RuleFamily
	local Op
}

// shadowOp is one stored one-sided operation. Its epoch is looked up
// only when the operation first matches.
type shadowOp struct {
	ev     *trace.Event
	target model.Footprint
}

// shadowRegion is the detector's state for the region being checked: the
// store, the stored-op payload arena, a dedup cache, and interning tables
// (operation classes, access sites, rule texts) that
// keep the emit path free of fmt.Sprintf calls. One shadowRegion serves
// every region a worker checks: reset empties the per-region parts, and
// the tables, which are pure functions of their keys, carry over to the
// end of the analysis, where release empties them. A site is interned
// and rendered only once an access matches.
type shadowRegion struct {
	a  *Analyzer
	st *shadow.Store

	ops    []shadowOp      // arena: Access.Payload indexes this
	used   int             // how many of ops the analysis has filled, for release
	opSite []shadow.SiteID // site of each stored op, -1 until it first matches

	siteOps []string // rendered operand (operandString short=false) per SiteID

	classIdx map[opClassKey]int32
	classRep []*trace.Event // representative event per class

	rules map[Rule]string // rendered rule texts

	// seen maps dedup keys to the violation col holds for each, so a
	// repeated instance costs one Count++. It lives as long as col: one
	// region on a worker pool, the whole pass when regions run serially.
	col  *collector
	seen map[crossKey]*Violation
}

// reset readies sr for a region of n one-sided operations whose
// violations go to col.
func (sr *shadowRegion) reset(a *Analyzer, col *collector, n int) {
	if sr.st == nil {
		*sr = shadowRegion{
			st:       shadow.NewStore(shadow.NewDepot()),
			classIdx: map[opClassKey]int32{},
			rules:    map[Rule]string{},
			seen:     map[crossKey]*Violation{},
		}
	}
	sr.a = a
	sr.st.Reset(n)
	sr.ops = slices.Grow(sr.ops[:0], n)
	sr.used = max(sr.used, n)
	sr.opSite = slices.Grow(sr.opSite[:0], n)
	if sr.col != col {
		sr.col = col
		clear(sr.seen)
	}
}

// release empties sr of everything tied to the analysis it served: the
// analyzer and collector, stored operations and clocks, interned sites
// with their operand strings, operation classes with their
// representative events, the rule texts that name a window, and the dedup
// cache. Capacity and the other rule texts, pure functions of operation
// kinds and classes, are kept.
func (sr *shadowRegion) release() {
	if sr.st == nil {
		return
	}
	sr.a, sr.col = nil, nil
	sr.st.Reset(0)
	sr.st.Depot().Reset()
	clear(sr.ops[:sr.used])
	sr.ops, sr.opSite, sr.used = sr.ops[:0], sr.opSite[:0], 0
	clear(sr.siteOps)
	sr.siteOps = sr.siteOps[:0]
	clear(sr.classIdx)
	clear(sr.classRep)
	sr.classRep = sr.classRep[:0]
	maps.DeleteFunc(sr.rules, func(r Rule, _ string) bool { return r.Family == RuleCrossStore })
	clear(sr.seen)
}

// site interns an event's access site, rendering its operand string
// (shared by dedup-key presetting and witness/report rendering) once.
func (sr *shadowRegion) site(ev *trace.Event) shadow.SiteID {
	id, fresh := sr.st.Depot().Intern(uint8(ev.Kind), ev.File, ev.Line, ev.Func)
	if fresh {
		sr.siteOps = append(sr.siteOps, operandString(ev, false))
	}
	return id
}

// storedSite is the site of stored op payload, interned on first use.
func (sr *shadowRegion) storedSite(payload int32) shadow.SiteID {
	if sr.opSite[payload] < 0 {
		sr.opSite[payload] = sr.site(sr.ops[payload].ev)
	}
	return sr.opSite[payload]
}

// classOf interns an event's operation class.
func (sr *shadowRegion) classOf(ev *trace.Event) int32 {
	k := opClassKey{kind: ev.Kind, accOp: ev.AccOp, targetType: ev.TargetType}
	if id, ok := sr.classIdx[k]; ok {
		return id
	}
	id := int32(len(sr.classRep))
	sr.classIdx[k] = id
	sr.classRep = append(sr.classRep, ev)
	return id
}

// ruleText renders r once per analysis.
func (sr *shadowRegion) ruleText(r Rule) string {
	t, ok := sr.rules[r]
	if !ok {
		t = r.String()
		sr.rules[r] = t
	}
	return t
}

// repeat folds an instance whose key is cached into the violation the
// collector holds and reports whether it did.
func (sr *shadowRegion) repeat(k crossKey) bool {
	held := sr.seen[k]
	if held == nil {
		return false
	}
	held.Count++
	return true
}

// first records an instance of rule r whose key is not cached through the
// collector's key index, which folds it into an earlier instance whose
// key renders to the same string, and caches the violation the index
// holds.
func (sr *shadowRegion) first(k crossKey, rg dag.Region, aEpoch, bEpoch *Epoch, r Rule, v *Violation) {
	v.Rule = sr.ruleText(r)
	presetKey(v, sr.siteOps[k.a], sr.siteOps[k.b])
	sr.seen[k] = sr.a.addCross(sr.col, rg, aEpoch, bEpoch, r, v)
}

// detectCrossProcess checks every concurrent region. Regions are
// sequentially ordered and independent, so with Options.Workers > 1 they
// are checked concurrently and the per-region results merged in region
// order, keeping the output deterministic.
func (a *Analyzer) detectCrossProcess() error {
	regions := a.d.Regions()
	a.report.Regions = len(regions)
	scope := func(i int) string { return fmt.Sprintf("region %d", i) }
	return a.parallelCollect(len(regions), "detect_cross", scope, func(i int, col *collector) error {
		return a.checkRegion(regions[i], col)
	})
}

func (a *Analyzer) checkRegion(rg dag.Region, col *collector) error {
	rma := 0
	for r := 0; r < a.m.Set.Ranks(); r++ {
		lo, hi := rg.Span(int32(r))
		evs := a.m.Set.Traces[r].Events[lo:hi]
		for i := range evs {
			if evs[i].Kind.IsRMAComm() {
				rma++
			}
		}
	}
	sr := col.cross
	sr.reset(a, col, rma)

	// Step 1: remote one-sided operations. Each is checked against the
	// store before it is inserted, so an operation never matches itself
	// or its successors.
	if err := sr.matchRMA(rg); err != nil {
		return err
	}

	// Step 2: local operations at each target process.
	return a.forEachLocalAccess(rg, func(ev *trace.Event, cls Op, fp model.Footprint, storeRule bool) error {
		sr.checkLocal(rg, ev, cls, fp, storeRule)
		return nil
	})
}

func (sr *shadowRegion) matchRMA(rg dag.Region) error {
	a := sr.a
	for r := 0; r < a.m.Set.Ranks(); r++ {
		t := a.m.Set.Traces[r]
		lo, hi := rg.Span(int32(r))
		ro, cur := a.opEpoch.rank(int32(r)), -1 // cur: table index of the next RMA event
		for seq := lo; seq < hi; seq++ {
			ev := &t.Events[seq]
			if !ev.Kind.IsRMAComm() {
				continue
			}
			if cur < 0 {
				cur = ro.from(seq)
			}
			target, err := ro.footprint(cur, sideTarget)
			cur++
			if err != nil {
				return err
			}
			id := ev.ID()
			key := shadow.VectorKey{Win: ev.Win, Target: target.Rank}
			payload := int32(len(sr.ops))
			sr.ops = append(sr.ops, shadowOp{ev: ev, target: target})
			sr.opSite = append(sr.opSite, -1)
			clock := a.d.ClockRef(id)

			sr.st.Query(key, shadow.Query{Rank: ev.Rank, Seq: id.Seq, Clock: clock},
				target.Intervals,
				func(rank, class int32) shadow.Mode {
					if rank == ev.Rank {
						// Same-process pairs are the intra-epoch detector's job.
						return shadow.ModeSkip
					}
					if EffectiveCompat(sr.classRep[class], ev) == Both {
						return shadow.ModeSkip
					}
					return shadow.ModeOverlap
				},
				func(p int32) {
					k := crossKey{a: sr.storedSite(p), b: sr.storedSite(payload), win: ev.Win, fam: RuleCrossRMA}
					if sr.repeat(k) {
						return
					}
					prev := &sr.ops[p]
					iv, _ := target.Overlaps(prev.target)
					prevEpoch, curEpoch := a.opEpoch.Of(prev.ev.ID()), a.opEpoch.Of(id)
					sr.first(k, rg, prevEpoch, curEpoch, Rule{Family: RuleCrossRMA, A: prev.ev.Kind, B: ev.Kind}, &Violation{
						Severity: rmaPairSeverity(prevEpoch, curEpoch),
						A:        *prev.ev, B: *ev, Win: ev.Win, Overlap: iv, Region: rg.Index,
					})
				})

			sr.st.Insert(key, shadow.Access{
				Payload: payload, Rank: ev.Rank, Class: sr.classOf(ev),
				Seq: id.Seq, Clock: clock, Target: target.Intervals,
			})
		}
	}
	return nil
}

// checkLocal compares one local access of process fp.Rank with the
// remote one-sided operations stored for windows at that process: one
// query per (footprint interval, overlapping window) hit, in ascending
// window ID, each probing with the full footprint; an access whose
// footprint crosses a window several times therefore counts once per
// crossing. storeRule enables the MPI-2.2 rule that a local store may not
// be concurrent with any Put or Accumulate epoch exposing the same
// window, even without byte overlap.
func (sr *shadowRegion) checkLocal(rg dag.Region, ev *trace.Event, cls Op,
	fp model.Footprint, storeRule bool) {
	a := sr.a
	id := ev.ID()
	q := shadow.Query{Rank: ev.Rank, Seq: id.Seq, Clock: a.d.ClockRef(id)}
	evSite := shadow.SiteID(-1)

	for _, iv := range fp.Intervals {
		for _, w := range a.m.RankWindows(fp.Rank) {
			if !w.Buf.Overlaps(iv) {
				continue
			}
			win := w.Info.ID
			sr.st.Query(shadow.VectorKey{Win: win, Target: fp.Rank}, q, fp.Intervals,
				func(rank, class int32) shadow.Mode {
					if rank == ev.Rank {
						return shadow.ModeSkip
					}
					opCls, _ := OpOf(sr.classRep[class].Kind)
					switch Table(opCls, cls) {
					case Both:
						return shadow.ModeSkip
					case Error:
						// Store vs Put/Acc: erroneous without overlap — but only
						// for true local stores, not Get origin-buffer writes.
						if storeRule {
							return shadow.ModeAll
						}
						return shadow.ModeOverlap
					default: // NonOverlap
						return shadow.ModeOverlap
					}
				},
				func(payload int32) {
					op := &sr.ops[payload]
					overlapIv, _ := fp.Overlaps(op.target)
					opCls, _ := OpOf(op.ev.Kind)
					noOverlap := Table(opCls, cls) == Error && overlapIv.Empty()
					if evSite < 0 {
						evSite = sr.site(ev)
					}
					r := crossLocalRule(op.ev.Kind, cls, win, noOverlap)
					k := crossKey{a: sr.storedSite(payload), b: evSite, win: win, fam: r.Family, local: cls}
					if sr.repeat(k) {
						return
					}
					opEpoch := a.opEpoch.Of(op.ev.ID())
					sr.first(k, rg, opEpoch, a.opEpoch.Of(id), r, &Violation{
						Severity: localPairSeverity(opEpoch),
						A:        *op.ev, B: *ev, Win: win, Overlap: overlapIv, Region: rg.Index,
					})
				})
		}
	}
}
