package core

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/match"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/trace"
)

// This file holds the pairwise cross-process scan that the shadow-memory
// detector (detect_shadow.go) replaced. Per concurrent region it keeps
// every one-sided operation in a plain vector per (window, target
// process), compares each new operation with every one stored there, and
// then compares every local access of a target process with every stored
// operation on the windows its footprint overlaps — O(ops²) per vector.
// It resolves footprints from the model, not the operation table, and
// asks the DAG for concurrency pair by pair. It is the oracle the
// production detector must match byte for byte (cross_diff_test.go).

// storedOp is one remote one-sided operation recorded in a window vector.
type storedOp struct {
	ev     *trace.Event
	target model.Footprint
	epoch  *Epoch
}

type winTarget struct {
	win int32
	tw  int32
}

// detectCrossPairwise checks every concurrent region with the pairwise
// scan, in parallel when opts.Workers > 1, exactly as detectCrossProcess
// does.
func (a *Analyzer) detectCrossPairwise() error {
	regions := a.d.Regions()
	a.report.Regions = len(regions)
	scope := func(i int) string { return fmt.Sprintf("region %d", i) }
	return a.parallelCollect(len(regions), "detect_cross", scope, func(i int, col *collector) error {
		return a.checkRegionPairwise(regions[i], col)
	})
}

func (a *Analyzer) checkRegionPairwise(rg dag.Region, col *collector) error {
	vectors := map[winTarget][]storedOp{}

	// Step 1: remote one-sided operations, checked pairwise per vector.
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
			key := winTarget{win: ev.Win, tw: target.Rank}
			cur := storedOp{ev: ev, target: target, epoch: a.opEpoch.Of(ev.ID())}
			for i := range vectors[key] {
				prev := &vectors[key][i]
				if prev.ev.Rank == ev.Rank {
					continue // same-process pairs are the intra-epoch detector's job
				}
				if !a.d.Concurrent(prev.ev.ID(), ev.ID()) {
					continue
				}
				iv, overlap := target.Overlaps(prev.target)
				if !overlap {
					continue
				}
				if EffectiveCompat(prev.ev, ev) == Both {
					continue
				}
				a.addCross(col, rg, prev.epoch, cur.epoch, Rule{Family: RuleCrossRMA, A: prev.ev.Kind, B: ev.Kind}, &Violation{
					Severity: rmaPairSeverity(prev.epoch, cur.epoch),
					A:        *prev.ev, B: *ev, Win: ev.Win, Overlap: iv, Region: rg.Index,
				})
			}
			vectors[key] = append(vectors[key], cur)
		}
	}

	// Step 2: local operations at each process against the stored remote
	// operations on that process's window buffers.
	return a.forEachLocalAccess(rg, func(ev *trace.Event, cls Op, fp model.Footprint, storeRuleApplies bool) error {
		a.checkLocalPairwise(rg, vectors, ev, cls, fp, storeRuleApplies, col)
		return nil
	})
}

// checkLocalPairwise compares one local operation of process fp.Rank
// against the remote one-sided operations stored for windows at that
// process: per footprint interval, the vector of every window whose
// buffer it overlaps, in ascending window ID. storeRuleApplies enables the
// MPI-2.2 rule that a local store may not be concurrent with any Put or
// Accumulate epoch exposing the same window, even without byte overlap.
func (a *Analyzer) checkLocalPairwise(rg dag.Region, vectors map[winTarget][]storedOp,
	ev *trace.Event, cls Op, fp model.Footprint, storeRuleApplies bool, col *collector) {
	for _, iv := range fp.Intervals {
		for _, w := range a.m.RankWindows(fp.Rank) {
			if !w.Buf.Overlaps(iv) {
				continue
			}
			wi := w.Info
			vec := vectors[winTarget{win: wi.ID, tw: fp.Rank}]
			for i := range vec {
				op := &vec[i]
				if op.ev.Rank == ev.Rank {
					continue
				}
				if !a.d.Concurrent(op.ev.ID(), ev.ID()) {
					continue
				}
				opCls, _ := OpOf(op.ev.Kind)
				cell := Table(opCls, cls)
				var overlapIv memory.Interval
				conflict := false
				switch cell {
				case Both:
					continue
				case NonOverlap:
					overlapIv, conflict = fp.Overlaps(op.target)
				case Error:
					// Store vs Put/Acc: erroneous without overlap — but only
					// for true local stores, not Get origin-buffer writes.
					if storeRuleApplies {
						conflict = true
						overlapIv, _ = fp.Overlaps(op.target)
					} else {
						overlapIv, conflict = fp.Overlaps(op.target)
					}
				}
				if !conflict {
					continue
				}
				r := crossLocalRule(op.ev.Kind, cls, wi.ID, cell == Error && overlapIv.Empty())
				a.addCross(col, rg, op.epoch, a.opEpoch.Of(ev.ID()), r, &Violation{
					Severity: localPairSeverity(op.epoch),
					A:        *op.ev, B: *ev, Win: wi.ID, Overlap: overlapIv, Region: rg.Index,
				})
			}
		}
	}
}

// AnalyzeWithCrossOracle is AnalyzeWith with the pairwise scan in place of
// the production cross-process detector. The front end, the within-epoch
// detector, the dedup and the report are the production ones.
func AnalyzeWithCrossOracle(set *trace.Set, opts Options) (*Report, error) {
	m, err := model.Build(set)
	if err != nil {
		return nil, err
	}
	ms, err := match.Run(m)
	if err != nil {
		return nil, err
	}
	d, err := dag.Build(m, ms)
	if err != nil {
		return nil, err
	}
	epochs, opEpoch, err := ExtractEpochs(m)
	if err != nil {
		return nil, err
	}
	cross := opts.CrossProcess
	opts.CrossProcess = false
	a := NewAnalyzer(m, d, epochs, opEpoch, opts)
	if _, err := a.Run(); err != nil {
		return nil, err
	}
	if cross {
		if err := a.detectCrossPairwise(); err != nil {
			return nil, err
		}
	}
	a.report.Sort()
	return a.report, nil
}

// DiffCrossReports compares a report of the oracle with one of the
// production detector, both sorted: the same violations, dedup counts
// and renderings, violation by violation, so a mismatch names the first
// violation that differs.
func DiffCrossReports(oracle, got *Report) error {
	if len(oracle.Violations) != len(got.Violations) {
		return fmt.Errorf("oracle reports %d violation(s), detector %d",
			len(oracle.Violations), len(got.Violations))
	}
	for i := range oracle.Violations {
		o, g := oracle.Violations[i], got.Violations[i]
		if o.Key() != g.Key() {
			return fmt.Errorf("violation %d: oracle key %q, detector key %q", i, o.Key(), g.Key())
		}
		if o.Count != g.Count {
			return fmt.Errorf("violation %d (%s): oracle count %d, detector count %d",
				i, o.Key(), o.Count, g.Count)
		}
		if os, gs := o.String(), g.String(); os != gs {
			return fmt.Errorf("violation %d: renderings differ\noracle:\n%s\ndetector:\n%s", i, os, gs)
		}
	}
	return nil
}
