package core

// The shadow cross-process engine: the same detection semantics as
// checkRegion (detect.go), restated over internal/shadow's shadow-memory
// store so the per-vector cost drops from O(ops²) pairwise scans to
// interval-keyed cell lookups plus vector-clock binary searches
// (FastTrack, Flanagan & Freund, PLDI 2009, transposed to MC-Checker's
// epoch model). The contract is byte-identical reports — every
// violation, dedup count, representative instance, and witness chain
// must match the pairwise engine exactly; EngineDifferential and the
// differential test sweep enforce it.
//
// How the semantics map onto the store:
//
//   - group classification replaces the per-pair guards. Stored
//     accesses are grouped by (origin rank, operation class) where a
//     class interns (Kind, AccOp, TargetType) — exactly the fields
//     EffectiveCompat and Table read — so "same rank" and
//     "compatibility BOTH" skip whole groups once per query instead of
//     once per pair;
//   - the DAG Concurrent() calls become the store's concurrent-range
//     binary searches over segment clocks (dag.ClockRef);
//   - byte-overlap guards become shadow-cell membership: a query only
//     walks the cells its footprint touches, and a cell interval is a
//     subset of every member's footprint, so touching one proves
//     overlap. The MPI-2.2 no-overlap store rule (Error × local store)
//     maps to ModeAll, walking the group's full concurrent range;
//   - the store emits matches in vector insertion order, which keeps
//     the first recorded instance of every dedup key — and therefore
//     the surviving representative fields and witness — identical to
//     the pairwise scan;
//   - a repeated instance of a dedup key is recognised by its site pair,
//     window and rule family (crossKey) and only bumps the count of the
//     violation the collector holds; the key string, the Violation and
//     its witness closure are built once per key.
import (
	"fmt"
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

// localRuleKey caches the step-2 rule strings per (local class, remote
// kind); the no-overlap variant additionally names the window (window
// IDs start at 0, so the variant needs its own flag, not a sentinel).
type localRuleKey struct {
	cls       Op
	kind      trace.Kind
	win       int32
	noOverlap bool
}

// crossKey stands for a dedup key without its string: two access sites
// (each fixing its kind and source location), the window, and the rule
// family — 0 for an RMA pair, whose rule follows from the two kinds, and
// 1 + 2·class (+1 for the no-overlap variant) for a local access.
type crossKey struct {
	a, b shadow.SiteID
	win  int32
	rule uint8
}

// shadowOp is one stored one-sided operation. Its epoch is looked up
// only when the operation first matches.
type shadowOp struct {
	ev     *trace.Event
	target model.Footprint
}

// shadowRegion is the shadow engine's state for the region being
// checked: the store, the stored-op payload arena, a dedup cache, and
// interning tables (operation classes, access sites, rule strings) that
// keep the emit path free of fmt.Sprintf calls. One shadowRegion serves
// every region a worker checks: reset empties the per-region parts, and
// the tables, which are pure functions of their keys, carry over. A site
// is interned and rendered only once an access matches.
type shadowRegion struct {
	a  *Analyzer
	st *shadow.Store

	ops    []shadowOp      // arena: Access.Payload indexes this
	opSite []shadow.SiteID // site of each stored op, -1 until it first matches

	siteOps []string // rendered operand (operandString short=false) per SiteID

	classIdx map[opClassKey]int32
	classRep []*trace.Event // representative event per class

	pairRules  map[[2]trace.Kind]string
	localRules map[localRuleKey]string

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
			st:         shadow.NewStore(shadow.NewDepot()),
			classIdx:   map[opClassKey]int32{},
			pairRules:  map[[2]trace.Kind]string{},
			localRules: map[localRuleKey]string{},
			seen:       map[crossKey]*Violation{},
		}
	}
	sr.a = a
	sr.st.Reset(n)
	sr.ops = slices.Grow(sr.ops[:0], n)
	sr.opSite = slices.Grow(sr.opSite[:0], n)
	if sr.col != col {
		sr.col = col
		clear(sr.seen)
	}
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

func (sr *shadowRegion) pairRule(prev, cur trace.Kind) string {
	k := [2]trace.Kind{prev, cur}
	if r, ok := sr.pairRules[k]; ok {
		return r
	}
	r := fmt.Sprintf("concurrent %s and %s from different processes overlap in the target window", prev, cur)
	sr.pairRules[k] = r
	return r
}

func (sr *shadowRegion) localRule(cls Op, kind trace.Kind, win int32, noOverlap bool) string {
	k := localRuleKey{cls: cls, kind: kind, noOverlap: noOverlap}
	if noOverlap {
		k.win = win
	}
	if r, ok := sr.localRules[k]; ok {
		return r
	}
	var r string
	if noOverlap {
		r = fmt.Sprintf("local %s to window %d while a concurrent remote %s updates the window (erroneous even without overlap)",
			cls, win, kind)
	} else {
		r = fmt.Sprintf("local %s at the target process conflicts with a concurrent remote %s", cls, kind)
	}
	sr.localRules[k] = r
	return r
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

// first records an instance whose key is not cached through the
// collector's key index, which folds it into an earlier instance whose
// key renders to the same string, and caches the violation the index
// holds.
func (sr *shadowRegion) first(k crossKey, rg dag.Region, aEpoch, bEpoch *Epoch, v *Violation) {
	presetKey(v, sr.siteOps[k.a], sr.siteOps[k.b])
	sr.seen[k] = sr.a.addCross(sr.col, rg, aEpoch, bEpoch, v)
}

// detectCrossProcessShadow is detectCrossProcess with the shadow engine
// per region; the parallelization and merge order are identical.
func (a *Analyzer) detectCrossProcessShadow() error {
	regions := a.d.Regions()
	a.report.Regions = len(regions)
	scope := func(i int) string { return fmt.Sprintf("region %d", i) }
	return a.parallelCollect(len(regions), "detect_cross", scope, func(i int, col *collector) error {
		return a.checkRegionShadow(regions[i], col)
	})
}

func (a *Analyzer) checkRegionShadow(rg dag.Region, col *collector) error {
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
	// store (same check-then-insert discipline as the pairwise vector
	// scan, so an operation never matches itself or its successors).
	if err := sr.matchRMA(rg); err != nil {
		return err
	}

	// Step 2: local operations at each target process, via the walker
	// shared with the pairwise engine.
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
		for seq := lo; seq < hi; seq++ {
			ev := &t.Events[seq]
			if !ev.Kind.IsRMAComm() {
				continue
			}
			target, err := a.m.TargetFootprint(ev)
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
					k := crossKey{a: sr.storedSite(p), b: sr.storedSite(payload), win: ev.Win}
					if sr.repeat(k) {
						return
					}
					prev := &sr.ops[p]
					iv, _ := target.Overlaps(prev.target)
					prevEpoch, curEpoch := a.opEpoch.Of(prev.ev.ID()), a.opEpoch.Of(id)
					sr.first(k, rg, prevEpoch, curEpoch, &Violation{
						Severity: rmaPairSeverity(prevEpoch, curEpoch),
						Class:    AcrossProcesses,
						Rule:     sr.pairRule(prev.ev.Kind, ev.Kind),
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

// checkLocal is checkLocalAgainstVectors over the store: one query per
// (footprint interval, overlapping window) hit, probing with the full
// footprint — the pairwise scan's conflict test uses the whole footprint
// too, and its per-interval vector rescans (which multiply dedup counts)
// are reproduced by issuing one store query per hit.
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
					k := crossKey{a: sr.storedSite(payload), b: evSite, win: win, rule: 1 + 2*uint8(cls)}
					if noOverlap {
						k.rule++
					}
					if sr.repeat(k) {
						return
					}
					opEpoch := a.opEpoch.Of(op.ev.ID())
					sr.first(k, rg, opEpoch, a.opEpoch.Of(id), &Violation{
						Severity: localPairSeverity(opEpoch),
						Class:    AcrossProcesses,
						Rule:     sr.localRule(cls, op.ev.Kind, win, noOverlap),
						A:        *op.ev, B: *ev, Win: win, Overlap: overlapIv, Region: rg.Index,
					})
				})
		}
	}
}

// detectCrossDifferential runs the pairwise oracle and the shadow engine
// on private sub-analyzers, fails if their sorted cross-process reports
// differ in any violation, count, or rendered byte, and merges the
// shadow result into the main report.
func (a *Analyzer) detectCrossDifferential() error {
	a.report.Regions = len(a.d.Regions())
	run := func(engine Engine) (*Report, error) {
		opts := a.opts
		opts.Engine = engine
		if engine == EnginePairwise {
			// The oracle run is redundant work; keep it off the causal
			// timeline so span lanes reflect the production engine only.
			opts.Trace = nil
		}
		sub := NewAnalyzer(a.m, a.d, a.epochs, a.opEpoch, opts)
		var err error
		if engine == EnginePairwise {
			err = sub.detectCrossProcess()
		} else {
			err = sub.detectCrossProcessShadow()
		}
		if err != nil {
			return nil, err
		}
		sub.report.Sort()
		return sub.report, nil
	}
	pw, err := run(EnginePairwise)
	if err != nil {
		return err
	}
	sh, err := run(EngineShadow)
	if err != nil {
		return err
	}
	if err := diffCrossReports(pw, sh); err != nil {
		return err
	}
	for _, v := range sh.Violations {
		a.report.addCounted(a.vindex, v)
	}
	return nil
}

// diffCrossReports compares two sorted cross-process reports for byte
// identity: same violations, same dedup counts, same renderings.
func diffCrossReports(pw, sh *Report) error {
	if len(pw.Violations) != len(sh.Violations) {
		return fmt.Errorf("differential engine mismatch: pairwise reports %d violation(s), shadow %d",
			len(pw.Violations), len(sh.Violations))
	}
	for i := range pw.Violations {
		p, s := pw.Violations[i], sh.Violations[i]
		if p.key() != s.key() {
			return fmt.Errorf("differential engine mismatch at violation %d: pairwise key %q, shadow key %q",
				i, p.key(), s.key())
		}
		if p.Count != s.Count {
			return fmt.Errorf("differential engine mismatch at violation %d (%s): pairwise count %d, shadow count %d",
				i, p.key(), p.Count, s.Count)
		}
		if ps, ss := p.String(), s.String(); ps != ss {
			return fmt.Errorf("differential engine mismatch at violation %d: renderings differ\npairwise:\n%s\nshadow:\n%s",
				i, ps, ss)
		}
	}
	return nil
}
