package core

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/trace"
)

// This file holds the all-pairs within-epoch scan that the indexed
// checkEpoch replaced. It compares every new operation and local access
// with every pending operation — O(n²) per epoch — and is the oracle the
// indexed detector must match byte for byte (intra_diff_test.go).

type oracleOp struct {
	ev     *trace.Event
	locals []localSide
	target model.Footprint
	tw     int32
	// localDone is set by Win_flush_local: the operation's local buffers
	// are complete, so later local accesses are ordered after them.
	localDone bool
}

func (a *Analyzer) oracleLocalSides(ev *trace.Event) ([]localSide, error) {
	origin, err := a.m.OriginFootprint(ev)
	if err != nil {
		return nil, err
	}
	sides := []localSide{{fp: origin, write: ev.Kind == trace.KindGet, role: RoleOrigin}}
	if ev.ResultCount > 0 {
		result, err := a.m.ResultFootprint(ev)
		if err != nil {
			return nil, err
		}
		sides = append(sides, localSide{fp: result, write: true, role: RoleResult})
	}
	return sides, nil
}

// checkEpochLinear finds conflicts inside one epoch by scanning every
// pending operation for each event, reporting into col.
func (a *Analyzer) checkEpochLinear(e *Epoch, col *collector) error {
	t := a.m.Set.Traces[e.Rank]
	var ops []oracleOp
	opSet := make(map[trace.ID]bool, len(e.Ops))
	for _, id := range e.Ops {
		opSet[id] = true
	}
	flushTargetWorld := func(ev *trace.Event) (int32, bool, error) {
		if ev.Target < 0 {
			return 0, true, nil // flush_all
		}
		tw, err := lockTargetWorld(a.m, ev)
		return tw, false, err
	}
	checkLocal := func(ev *trace.Event, acc model.Footprint, accWrite bool) {
		for i := range ops {
			o := &ops[i]
			if o.localDone {
				continue
			}
			for _, side := range o.locals {
				iv, overlap := acc.Overlaps(side.fp)
				if !overlap || (!accWrite && !side.write) {
					continue
				}
				a.addIntra(col, e, Rule{Family: RulePendingBuffer, A: o.ev.Kind, B: ev.Kind, ARole: side.role},
					&Violation{A: *o.ev, B: *ev, Win: e.Win, Overlap: iv})
			}
		}
	}

	for seq := e.Start + 1; seq < e.End && seq < int64(len(t.Events)); seq++ {
		ev := &t.Events[seq]
		switch {
		case ev.Kind == trace.KindWinFlush && ev.Win == e.Win:
			tw, all, err := flushTargetWorld(ev)
			if err != nil {
				return err
			}
			kept := ops[:0]
			for _, o := range ops {
				if !all && o.tw != tw {
					kept = append(kept, o)
				}
			}
			ops = kept
		case ev.Kind == trace.KindWinFlushLocal && ev.Win == e.Win:
			tw, all, err := flushTargetWorld(ev)
			if err != nil {
				return err
			}
			for i := range ops {
				if all || ops[i].tw == tw {
					ops[i].localDone = true
				}
			}
		case ev.Kind.IsLocalAccess():
			checkLocal(ev, model.AccessFootprint(ev), ev.Kind == trace.KindStore)
		case opSet[ev.ID()]:
			locals, err := a.oracleLocalSides(ev)
			if err != nil {
				return err
			}
			target, err := a.m.TargetFootprint(ev)
			if err != nil {
				return err
			}
			tw := target.Rank
			for i := range ops {
				o := &ops[i]
				// Local-side pairs: conflict when overlapping with at
				// least one writer, unless the older op's local buffers
				// were completed by a flush_local.
				if !o.localDone {
					for _, os := range o.locals {
						for _, ns := range locals {
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
				if o.tw == tw {
					if iv, ok := target.Overlaps(o.target); ok {
						if EffectiveCompat(o.ev, ev) != Both {
							a.addIntra(col, e, Rule{Family: RuleTargetTarget, A: o.ev.Kind, B: ev.Kind},
								&Violation{A: *o.ev, B: *ev, Win: e.Win, Overlap: iv})
						}
					}
				}
			}
			ops = append(ops, oracleOp{ev: ev, locals: locals, target: target, tw: tw})
		default:
			// Point-to-point and collective calls on a local buffer.
			if cls, ok := a.messageBufferClass(ev); ok {
				fp, err := a.m.OriginFootprint(ev)
				if err != nil {
					return err
				}
				checkLocal(ev, fp, cls == OpStore)
			}
		}
	}
	return nil
}

// AnalyzeWithIntraOracle is AnalyzeWith with the all-pairs scan in place
// of the indexed within-epoch detector. The cross-process detector, the
// dedup and the report are the production ones.
func AnalyzeWithIntraOracle(set *trace.Set, opts Options) (*Report, error) {
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
	intra := opts.IntraEpoch
	opts.IntraEpoch = false
	a := NewAnalyzer(m, d, epochs, opEpoch, opts)
	if intra {
		a.report.EpochsChecked += len(epochs)
		scope := func(i int) string { return fmt.Sprintf("epoch %d", i) }
		err := a.parallelCollect(len(epochs), "detect_intra", scope, func(i int, col *collector) error {
			return a.checkEpochLinear(epochs[i], col)
		})
		if err != nil {
			return nil, err
		}
	}
	return a.Run()
}
