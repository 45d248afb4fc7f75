package core_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/profiler"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// checkOpTable asserts that the operation table ExtractEpochs builds for
// set holds, for every RMA operation, exactly the footprints (or errors)
// model.TargetFootprint, OriginFootprint and ResultFootprint compute, in
// seq order from any starting event, and that each epoch's links list
// its Ops.
func checkOpTable(t *testing.T, set *trace.Set) {
	t.Helper()
	m, err := model.Build(set)
	if err != nil {
		t.Fatal(err)
	}
	epochs, ops, err := core.ExtractEpochs(m)
	if err != nil {
		t.Fatal(err)
	}
	resolvers := [3]func(*trace.Event) (model.Footprint, error){m.TargetFootprint, m.OriginFootprint, m.ResultFootprint}
	sides := [3]string{"target", "origin", "result"}
	for _, tr := range set.Traces {
		for _, lo := range []int{0, len(tr.Events) / 3, len(tr.Events) / 2} {
			var want []trace.ID
			for seq := lo; seq < len(tr.Events); seq++ {
				if tr.Events[seq].Kind.IsRMAComm() {
					want = append(want, tr.Events[seq].ID())
				}
			}
			got := core.WalkOpTable(ops, tr, lo)
			if len(got) != len(want) {
				t.Fatalf("rank %d from %d: table walk visits %d operations, trace holds %d", tr.Rank, lo, len(got), len(want))
			}
			for i, g := range got {
				if g.ID != want[i] {
					t.Fatalf("rank %d from %d: walk step %d is %v, want %v", tr.Rank, lo, i, g.ID, want[i])
				}
				ev := set.Get(g.ID)
				for s, resolve := range resolvers {
					fp, err := resolve(ev)
					if fmt.Sprint(err) != fmt.Sprint(g.Errs[s]) {
						t.Fatalf("%v %s: table error %v, model error %v", g.ID, sides[s], g.Errs[s], err)
					}
					if err == nil && (fp.Rank != g.FP[s].Rank || !slices.Equal(fp.Intervals, g.FP[s].Intervals)) {
						t.Fatalf("%v %s: table footprint %+v, model %+v", g.ID, sides[s], g.FP[s], fp)
					}
				}
			}
		}
	}
	for _, e := range epochs {
		if got := core.LinkedOps(ops, e); !slices.Equal(got, e.Ops) {
			t.Fatalf("%v: links list %v, Ops %v", e, got, e.Ops)
		}
	}
}

// TestOpTableMatchesModelFootprints differentially checks the operation
// table against the model's footprint functions on every registry case,
// one generator program per injection pattern, and permuted hot regions.
func TestOpTableMatchesModelFootprints(t *testing.T) {
	for _, bc := range apps.AllCases() {
		var rel profiler.Relevance
		if bc.RelevantBuffers != nil {
			rel = profiler.FromNames(bc.RelevantBuffers)
		}
		for variant, body := range map[string]func(p *mpi.Proc) error{"buggy": bc.Buggy, "fixed": bc.Fixed} {
			if body == nil {
				continue
			}
			t.Run("app/"+bc.Name+"/"+variant, func(t *testing.T) {
				checkOpTable(t, simulate(t, min(bc.Ranks, 8), rel, body))
			})
		}
	}
	for pi, p := range gen.Patterns() {
		pr, err := genProgram(p.Name, uint64(700+17*pi))
		if err != nil {
			t.Fatalf("gen/%s: %v", p.Name, err)
		}
		t.Run("gen/"+p.Name, func(t *testing.T) {
			checkOpTable(t, simulate(t, pr.Ranks, nil, pr.Body()))
		})
	}
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("hot-region/seed%d", seed), func(t *testing.T) {
			checkOpTable(t, permutedRegion(8, 1024, seed))
		})
	}
	for name, set := range opErrorSets() {
		if name == "unknown-window" || name == "target-out-of-range" {
			continue // extraction itself fails on these
		}
		t.Run("error/"+name, func(t *testing.T) { checkOpTable(t, set) })
	}
}

// TestOpResolutionErrors pins the error each failing trace gives, from
// the full analysis and from each detector alone: the error of the
// footprint the detector needs first, in the order it walks.
func TestOpResolutionErrors(t *testing.T) {
	want := map[string][3]string{ // both, intra, cross
		"undefined-target-type": {
			"model: rank 0 uses undefined datatype 150",
			"model: rank 0 uses undefined datatype 150",
			"model: rank 0 uses undefined datatype 150"},
		"undefined-origin-type": {
			"model: rank 0 uses undefined datatype 151",
			"model: rank 0 uses undefined datatype 151",
			"model: rank 0 uses undefined datatype 151"},
		"undefined-result-type": {
			"model: rank 0 uses undefined datatype 152",
			"model: rank 0 uses undefined datatype 152",
			"model: rank 0 uses undefined datatype 152"},
		"every-footprint-undefined": {
			"model: rank 0 uses undefined datatype 151",
			"model: rank 0 uses undefined datatype 151",
			"model: rank 0 uses undefined datatype 150"},
		"two-failing-ops": {
			"model: rank 0 uses undefined datatype 151",
			"model: rank 0 uses undefined datatype 151",
			"model: rank 1 uses undefined datatype 150"},
		"unknown-window": {
			"model: unknown window 9",
			"model: unknown window 9",
			"model: unknown window 9"},
		"target-out-of-range": {
			"model: rank 5 out of range for communicator 0 of size 2",
			"model: rank 5 out of range for communicator 0 of size 2",
			"model: rank 5 out of range for communicator 0 of size 2"},
	}
	sets := opErrorSets()
	if len(sets) != len(want) {
		t.Fatalf("%d error sets, %d expectations", len(sets), len(want))
	}
	for name, set := range sets {
		for i, mode := range opErrorModes {
			rep, err := core.AnalyzeWith(set, mode.opts)
			if err == nil {
				t.Errorf("%s/%s: no error; report:\n%s", name, mode.name, rep)
				continue
			}
			if err.Error() != want[name][i] {
				t.Errorf("%s/%s: error %q, want %q", name, mode.name, err, want[name][i])
			}
		}
	}
}

// opErrorModes are the analyses an operation's resolution error must
// surface from: both detectors, and each alone.
var opErrorModes = []struct {
	name string
	opts core.Options
}{
	{"both", core.DefaultOptions()},
	{"intra", core.Options{IntraEpoch: true}},
	{"cross", core.Options{CrossProcess: true}},
}

// opErrorSets are traces whose RMA operations fail to resolve: an
// undefined datatype on each footprint (150 on the target, 151 on the
// origin, 152 on the result), an unknown window, a target rank outside
// its communicator, and failing operations whose errors the detectors
// meet in different orders.
func opErrorSets() map[string]*trace.Set {
	const undefTarget, undefOrigin, undefResult = trace.TypeUserBase + 50, trace.TypeUserBase + 51, trace.TypeUserBase + 52
	put := func(target int32) trace.Event {
		return trace.Event{Kind: trace.KindPut, Win: 1, Target: target,
			OriginAddr: 0x500, OriginType: trace.TypeInt32, OriginCount: 1,
			TargetDisp: 8, TargetType: trace.TypeInt32, TargetCount: 1, File: "err.go", Line: 10}
	}
	getAcc := func(target int32) trace.Event {
		ev := put(target)
		ev.Kind, ev.AccOp = trace.KindGetAccumulate, trace.OpSum
		ev.ResultAddr, ev.ResultType, ev.ResultCount = 0x600, trace.TypeInt32, 1
		return ev
	}
	fenced := func(ops map[int32][]trace.Event) *trace.Set {
		b := testutil.NewTraceBuilder(2)
		b.WinCreate(1, 0x1000, 64)
		b.Fence(1)
		for r := int32(0); r < 2; r++ {
			for _, ev := range ops[r] {
				b.Add(r, ev)
			}
		}
		b.Fence(1)
		return b.Set()
	}
	sets := map[string]*trace.Set{}

	ev := put(1)
	ev.TargetType = undefTarget
	sets["undefined-target-type"] = fenced(map[int32][]trace.Event{0: {ev}})

	ev = put(1)
	ev.OriginType = undefOrigin
	sets["undefined-origin-type"] = fenced(map[int32][]trace.Event{0: {ev}})

	ev = getAcc(1)
	ev.ResultType = undefResult
	sets["undefined-result-type"] = fenced(map[int32][]trace.Event{0: {ev}})

	// All three footprints fail: the within-epoch detector resolves the
	// origin first, the cross-process detector the target.
	ev = getAcc(1)
	ev.TargetType, ev.OriginType, ev.ResultType = undefTarget, undefOrigin, undefResult
	sets["every-footprint-undefined"] = fenced(map[int32][]trace.Event{0: {ev}})

	// Rank 0's operation fails on its origin, rank 1's on its target: the
	// within-epoch detector meets rank 0's first, the cross-process
	// detector's first step (targets, every rank) rank 1's.
	bad0, bad1 := put(1), put(0)
	bad0.OriginType, bad1.TargetType = undefOrigin, undefTarget
	sets["two-failing-ops"] = fenced(map[int32][]trace.Event{0: {put(1), bad0}, 1: {bad1}})

	ev = put(1)
	ev.Win = 9
	sets["unknown-window"] = fenced(map[int32][]trace.Event{0: {ev}})

	sets["target-out-of-range"] = fenced(map[int32][]trace.Event{0: {put(5)}})
	return sets
}
