package core

import (
	"repro/internal/dag"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/trace"
)

// QuadraticCrossProcess is the straightforward cross-process detector the
// paper describes and rejects in §IV-C-4: "DN-Analyzer examining each pair
// of operations in a concurrent region against the compatibility table.
// Unfortunately, the time complexity is combinatorial with respect to the
// total number of operations within one concurrent region."
//
// It reports the same conflicts as Analyzer's linear detector (same rules,
// same deduplication) and exists as the ablation baseline for the
// linear-vs-quadratic benchmark.
func QuadraticCrossProcess(m *model.Model, d *dag.DAG) (*Report, error) {
	epochs, opEpoch, err := ExtractEpochs(m)
	if err != nil {
		return nil, err
	}
	a := NewAnalyzer(m, d, epochs, opEpoch, Options{})
	a.report.EventsAnalyzed = m.Set.TotalEvents()
	regions := d.Regions()
	a.report.Regions = len(regions)
	for _, rg := range regions {
		if err := a.quadraticRegion(rg); err != nil {
			return nil, err
		}
	}
	a.report.Sort()
	return a.report, nil
}

// site is one memory operation occurrence considered by the all-pairs scan.
type site struct {
	ev       *trace.Event
	isTarget bool // true: RMA target-window side; false: local access or RMA origin side
	cls      Op   // access class of this side
	fp       model.Footprint
	epoch    *Epoch
	// storeRule is true for genuine local stores (the no-overlap rule
	// applies), not for Get origin-buffer writes (paper §IV-C-4).
	storeRule bool
}

func (a *Analyzer) quadraticRegion(rg dag.Region) error {
	var sites []site
	for r := 0; r < a.m.Set.Ranks(); r++ {
		t := a.m.Set.Traces[r]
		lo, hi := rg.Span(int32(r))
		for seq := lo; seq < hi; seq++ {
			ev := &t.Events[seq]
			switch {
			case ev.Kind.IsRMAComm():
				target, err := a.m.TargetFootprint(ev)
				if err != nil {
					return err
				}
				cls, _ := OpOf(ev.Kind)
				epoch := a.opEpoch.Of(ev.ID())
				sites = append(sites, site{ev: ev, isTarget: true, cls: cls, fp: target, epoch: epoch})
				origin, err := a.m.OriginFootprint(ev)
				if err != nil {
					return err
				}
				sites = append(sites, site{ev: ev, cls: originClass(ev.Kind), fp: origin, epoch: epoch})
				if ev.ResultCount > 0 {
					result, err := a.m.ResultFootprint(ev)
					if err != nil {
						return err
					}
					sites = append(sites, site{ev: ev, cls: OpStore, fp: result, epoch: epoch})
				}
			case ev.Kind.IsLocalAccess():
				cls := OpLoad
				if ev.Kind == trace.KindStore {
					cls = OpStore
				}
				sites = append(sites, site{ev: ev, cls: cls, fp: model.AccessFootprint(ev), storeRule: cls == OpStore})
			default:
				if cls, ok := a.messageBufferClass(ev); ok {
					fp, err := a.m.OriginFootprint(ev)
					if err != nil {
						return err
					}
					sites = append(sites, site{ev: ev, cls: cls, fp: fp})
				}
			}
		}
	}

	// All pairs — the combinatorial scan.
	for i := 0; i < len(sites); i++ {
		for j := i + 1; j < len(sites); j++ {
			a.checkSitePair(rg, &sites[i], &sites[j])
		}
	}
	return nil
}

func (a *Analyzer) checkSitePair(rg dag.Region, x, y *site) {
	if x.ev.Rank == y.ev.Rank {
		return // same-process pairs belong to the intra-epoch detector
	}
	// Order so that target sites come first for uniform handling.
	if !x.isTarget && y.isTarget {
		x, y = y, x
	}
	if !x.isTarget {
		return // local×local never conflicts across processes (only window buffers at targets can race)
	}
	if !a.d.Concurrent(x.ev.ID(), y.ev.ID()) {
		return
	}

	if y.isTarget {
		// RMA target × RMA target: same window, same target process.
		if x.ev.Win != y.ev.Win || x.fp.Rank != y.fp.Rank {
			return
		}
		iv, overlap := x.fp.Overlaps(y.fp)
		if !overlap {
			return
		}
		if EffectiveCompat(x.ev, y.ev) == Both {
			return
		}
		a.addCross(&collector{report: a.report, vindex: a.vindex}, rg, x.epoch, y.epoch,
			Rule{Family: RuleCrossRMA, A: x.ev.Kind, B: y.ev.Kind}, &Violation{
				Severity: rmaPairSeverity(x.epoch, y.epoch),
				A:        *x.ev, B: *y.ev, Win: x.ev.Win, Overlap: iv, Region: rg.Index,
			})
		return
	}

	// RMA target × local side: the local side must be at the target
	// process and inside the same window.
	if y.fp.Rank != x.fp.Rank {
		return
	}
	inWindow := false
	for _, iv := range y.fp.Intervals {
		for _, w := range a.m.RankWindows(y.fp.Rank) {
			if w.Info.ID == x.ev.Win && w.Buf.Overlaps(iv) {
				inWindow = true
			}
		}
	}
	if !inWindow {
		return
	}
	opCls, _ := OpOf(x.ev.Kind)
	cell := Table(opCls, y.cls)
	var overlapIv memory.Interval
	conflict := false
	switch cell {
	case Both:
		return
	case NonOverlap:
		overlapIv, conflict = y.fp.Overlaps(x.fp)
	case Error:
		if y.storeRule {
			conflict = true
			overlapIv, _ = y.fp.Overlaps(x.fp)
		} else {
			overlapIv, conflict = y.fp.Overlaps(x.fp)
		}
	}
	if !conflict {
		return
	}
	a.addCross(&collector{report: a.report, vindex: a.vindex}, rg, x.epoch, y.epoch,
		crossLocalRule(x.ev.Kind, y.cls, x.ev.Win, cell == Error && overlapIv.Empty()), &Violation{
			Severity: localPairSeverity(x.epoch),
			A:        *x.ev, B: *y.ev, Win: x.ev.Win, Overlap: overlapIv, Region: rg.Index,
		})
}
