package core

import (
	"fmt"
	"strings"

	"repro/internal/dag"
	"repro/internal/obs/tracing"
	"repro/internal/trace"
)

// Violation provenance: the happens-before witness chain. Where the
// detectors report *that* two accesses conflict, the witness reconstructs
// *why* the happens-before path between them is open — the ordered
// synchronization and epoch events between the pair, in the spirit of the
// paper's causal-order reconstruction (§IV-C). The chain is what a user
// reads to decide which synchronization call to add (or move) to close
// the race, and what the Perfetto export lays out as per-rank tracks for
// the violating window.

// WitnessStep is one event on a violation's happens-before witness chain.
type WitnessStep struct {
	// Side attributes the step: 0 = shared synchronization context,
	// 1 = the first conflicting operand's side, 2 = the second's.
	Side byte
	// Role names the step's function on the chain, e.g. "epoch open",
	// "conflicting access (1)", "region close".
	Role string
	// Ev is a copy of the underlying trace event.
	Ev trace.Event
}

func (s WitnessStep) String() string {
	marker := "[sync]"
	switch s.Side {
	case 1:
		marker = " [1]  "
	case 2:
		marker = " [2]  "
	}
	return fmt.Sprintf("%s rank %d seq %d: %s at %s (%s) — %s",
		marker, s.Ev.Rank, s.Ev.Seq, s.Ev.Kind, s.Ev.Loc(), shortFunc(s.Ev.Func), s.Role)
}

// witnessString renders the chain as the indented block String() appends.
func witnessString(steps []WitnessStep) string {
	var sb strings.Builder
	sb.WriteString("  witness (happens-before chain left open):")
	for _, s := range steps {
		sb.WriteString("\n    ")
		sb.WriteString(s.String())
	}
	return sb.String()
}

// addIntra records a within-epoch violation of rule r — an error, always —
// with its witness chain attached lazily (built only if the violation
// survives dedup).
func (a *Analyzer) addIntra(col *collector, e *Epoch, r Rule, v *Violation) {
	v.Severity, v.Class, v.Rule, v.Fired = SevError, WithinEpoch, r.String(), r
	v.witnessFn = a.witnessIntra(e, v)
	col.add(v)
}

// addCross records a cross-process violation of rule r with its witness
// chain attached lazily and returns the violation the collector holds for
// its key. aEpoch and bEpoch are the operands' epochs, either of which may
// be nil (local accesses belong to no epoch). A v.Rule already set is
// taken as r's rendering.
func (a *Analyzer) addCross(col *collector, rg dag.Region, aEpoch, bEpoch *Epoch, r Rule, v *Violation) *Violation {
	v.Class, v.Fired = AcrossProcesses, r
	if v.Rule == "" {
		v.Rule = r.String()
	}
	v.witnessFn = a.witnessCross(rg, aEpoch, bEpoch, v)
	return col.add(v)
}

// witnessIntra builds the chain for a within-epoch violation: the epoch's
// opening synchronization, the two conflicting operations in program
// order, and the closing synchronization that would have completed the
// pending operation — the pair is unordered precisely because both sit
// between open and close.
func (a *Analyzer) witnessIntra(e *Epoch, v *Violation) func() []WitnessStep {
	return func() []WitnessStep {
		t := a.m.Set.Traces[e.Rank]
		steps := []WitnessStep{
			{Side: 0, Role: fmt.Sprintf("epoch open (%s)", e.Kind), Ev: t.Events[e.Start]},
			{Side: 1, Role: "conflicting access (1), still pending", Ev: v.A},
			{Side: 2, Role: "conflicting access (2), before the close", Ev: v.B},
		}
		if e.End < int64(len(t.Events)) {
			steps = append(steps, WitnessStep{
				Side: 0, Role: "epoch close — first point ordering the pair", Ev: t.Events[e.End],
			})
		}
		return steps
	}
}

// AddWitnessTracks lays every reported violation's witness chain onto the
// timeline as its own track: one lane per rank, one unit-length span per
// chain step at the step's position, so the Perfetto view shows the
// causal order left open between the two sides rank by rank. No-op when
// either argument is nil.
func AddWitnessTracks(tr *tracing.Recorder, rep *Report) {
	if tr == nil || rep == nil {
		return
	}
	for i, v := range rep.Violations {
		if len(v.Witness) == 0 {
			continue
		}
		track := fmt.Sprintf("violation %d (%s)", i+1, v.Class)
		for j, st := range v.Witness {
			side := "sync"
			switch st.Side {
			case 1:
				side = "first"
			case 2:
				side = "second"
			}
			tr.AddSpanAt(track, fmt.Sprintf("rank %d", st.Ev.Rank),
				fmt.Sprintf("%s — %s", st.Ev.Kind, st.Role), int64(j), 1,
				"side", side,
				"seq", fmt.Sprintf("%d", st.Ev.Seq),
				"loc", st.Ev.Loc())
		}
	}
}

// witnessCross builds the chain for a cross-process violation: the global
// synchronization delimiting the concurrent region, each side's epoch
// opening (when the access belongs to an epoch), the two conflicting
// accesses, and the region-closing synchronization — everything between
// the delimiters is concurrent across ranks, which is exactly why the
// pair is unordered.
func (a *Analyzer) witnessCross(rg dag.Region, aEpoch, bEpoch *Epoch, v *Violation) func() []WitnessStep {
	return func() []WitnessStep {
		var steps []WitnessStep
		ta := a.m.Set.Traces[v.A.Rank]
		tb := a.m.Set.Traces[v.B.Rank]
		if open := rg.Start[v.A.Rank] - 1; open >= 0 {
			steps = append(steps, WitnessStep{
				Side: 0, Role: fmt.Sprintf("region %d opens — ranks unordered past here", rg.Index),
				Ev: ta.Events[open],
			})
		}
		if aEpoch != nil {
			steps = append(steps, WitnessStep{
				Side: 1, Role: fmt.Sprintf("epoch open (%s) on rank %d", aEpoch.Kind, v.A.Rank),
				Ev: ta.Events[aEpoch.Start],
			})
		}
		steps = append(steps, WitnessStep{Side: 1, Role: "conflicting access (1)", Ev: v.A})
		if bEpoch != nil {
			steps = append(steps, WitnessStep{
				Side: 2, Role: fmt.Sprintf("epoch open (%s) on rank %d", bEpoch.Kind, v.B.Rank),
				Ev: tb.Events[bEpoch.Start],
			})
		}
		steps = append(steps, WitnessStep{Side: 2, Role: "conflicting access (2)", Ev: v.B})
		if rg.Index < len(a.d.Regions())-1 {
			if end := rg.End[v.B.Rank] - 1; end >= 0 && end < int64(len(tb.Events)) {
				steps = append(steps, WitnessStep{
					Side: 0, Role: fmt.Sprintf("region %d closes — first global order after the pair", rg.Index),
					Ev: tb.Events[end],
				})
			}
		}
		return steps
	}
}
