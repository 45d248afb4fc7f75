package core_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/mpi"
	"repro/internal/profiler"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// checkCrossOracle asserts that the production cross-process detector
// and the pairwise oracle give byte-identical text and JSON reports for
// set under opts — the same violations, dedup representatives, counts
// and witnesses — at one worker and at GOMAXPROCS. An input both reject
// must fail with the same error.
func checkCrossOracle(t testing.TB, set *trace.Set, opts core.Options) {
	t.Helper()
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		opts.Workers = w
		got, gotErr := core.AnalyzeWith(set, opts)
		want, wantErr := core.AnalyzeWithCrossOracle(set, opts)
		if gotErr != nil || wantErr != nil {
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("workers=%d: detector error %v, oracle error %v", w, gotErr, wantErr)
			}
			continue
		}
		if err := core.DiffCrossReports(want, got); err != nil {
			t.Errorf("workers=%d: %v", w, err)
			continue
		}
		if g, o := got.String(), want.String(); g != o {
			t.Errorf("workers=%d: report diverged from the oracle\n--- oracle ---\n%s\n--- detector ---\n%s", w, o, g)
			continue
		}
		gj, err := got.JSON()
		if err != nil {
			t.Fatal(err)
		}
		oj, err := want.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gj, oj) {
			t.Errorf("workers=%d: JSON report diverged from the oracle", w)
		}
	}
}

// TestShadowPairwiseDifferentialSweep is the cross-process detector's
// contract: over every bundled bug case, one injected generator program
// per bug pattern and hand-built regions, it must render the pairwise
// oracle's reports byte for byte.
func TestShadowPairwiseDifferentialSweep(t *testing.T) {
	type sweepCase struct {
		name  string
		ranks int
		rel   profiler.Relevance
		body  func(p *mpi.Proc) error
	}
	var cases []sweepCase
	for _, bc := range apps.BugCases() {
		ranks := bc.Ranks
		if ranks > 8 {
			ranks = 8
		}
		var rel profiler.Relevance
		if bc.RelevantBuffers != nil {
			rel = profiler.FromNames(bc.RelevantBuffers)
		}
		cases = append(cases, sweepCase{"app/" + bc.Name, ranks, rel, bc.Buggy})
	}
	for pi, p := range gen.Patterns() {
		pr, err := genProgram(p.Name, uint64(400+17*pi))
		if err != nil {
			t.Fatalf("gen/%s: %v", p.Name, err)
		}
		cases = append(cases, sweepCase{"gen/" + p.Name, pr.Ranks, nil, pr.Body()})
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			checkCrossOracle(t, simulate(t, c.ranks, c.rel, c.body), core.DefaultOptions())
		})
	}

	// Hand-built regions that stress the shadow store's deferred cover
	// and the dedup cache: the benchmark's hot region with its puts
	// permuted as perfbench permutes them, puts of one rank that overlap
	// each other before later ranks split their cells, windows sharing
	// one buffer, and one access site checked as two access classes.
	type builtCase struct {
		name string
		set  *trace.Set
	}
	var built []builtCase
	for seed := int64(1); seed <= 3; seed++ {
		built = append(built, builtCase{fmt.Sprintf("built/hot-seed%d", seed), experiments.PermutedShadowRegion(8, 1024, seed)})
	}
	built = append(built,
		builtCase{"built/overlap-split", overlapSplitRegion()},
		builtCase{"built/two-windows", twoWindowRegion()},
		builtCase{"built/one-site-two-classes", oneSiteTwoClassesRegion()})
	for _, c := range built {
		t.Run(c.name, func(t *testing.T) {
			checkCrossOracle(t, c.set, core.DefaultOptions())
		})
	}
}

// rmaOp appends a one-sided operation of n bytes at byte displacement
// disp of window win at rank 0, from the same displacement of a private
// origin buffer.
func rmaOp(b *testutil.TraceBuilder, rank int32, kind trace.Kind, acc trace.AccOp,
	win int32, disp, n uint64, line int32) {
	b.Add(rank, trace.Event{Kind: kind, Win: win, Target: 0, AccOp: acc,
		OriginAddr: 0x8000 + disp, OriginType: trace.TypeByte, OriginCount: int32(n),
		TargetDisp: disp, TargetType: trace.TypeByte, TargetCount: int32(n),
		File: "built.go", Line: line})
}

// lockAll opens (or with unlock, closes) a shared lock on window win at
// rank 0 from every origin rank.
func lockAll(b *testutil.TraceBuilder, ranks int32, win int32, unlock bool) {
	for r := int32(1); r < ranks; r++ {
		ev := trace.Event{Kind: trace.KindWinLock, Win: win, Target: 0, Lock: trace.LockShared}
		if unlock {
			ev = trace.Event{Kind: trace.KindWinUnlock, Win: win, Target: 0}
		}
		b.Add(r, ev)
	}
}

// overlapSplitRegion is one concurrent region against rank 0's window:
// rank 1's puts overlap each other, so its own members share and split
// cells; ranks 2 and 3 then cut those cells again with puts, accumulates
// and a get, from call sites repeated in a loop; rank 0 loads and stores
// into the window meanwhile, inside and outside the remote footprints.
func overlapSplitRegion() *trace.Set {
	b := testutil.NewTraceBuilder(4)
	b.WinCreate(1, 0x1000, 256)
	lockAll(b, 4, 1, false)
	for i := uint64(0); i < 3; i++ {
		rmaOp(b, 1, trace.KindPut, trace.OpNone, 1, 0+i, 64, 1)
		rmaOp(b, 1, trace.KindPut, trace.OpNone, 1, 32, 64, 2)
		rmaOp(b, 1, trace.KindPut, trace.OpNone, 1, 16+4*i, 32, 3)
		rmaOp(b, 1, trace.KindAccumulate, trace.OpSum, 1, 80, 40, 4)

		rmaOp(b, 2, trace.KindPut, trace.OpNone, 1, 40+8*i, 16, 5)
		rmaOp(b, 2, trace.KindAccumulate, trace.OpSum, 1, 76, 8, 6)
		rmaOp(b, 2, trace.KindAccumulate, trace.OpMax, 1, 60+i, 40, 7)

		rmaOp(b, 3, trace.KindGet, trace.OpNone, 1, 10, 80, 8)
		rmaOp(b, 3, trace.KindPut, trace.OpNone, 1, 100+2*i, 4, 9)
		rmaOp(b, 3, trace.KindAccumulate, trace.OpSum, 1, 0, 128, 10)

		b.Add(0, trace.Event{Kind: trace.KindStore, Addr: 0x1000 + 20 + i, Size: 8, File: "built.go", Line: 11})
		b.Add(0, trace.Event{Kind: trace.KindLoad, Addr: 0x1000 + 90, Size: 4, File: "built.go", Line: 12})
		b.Add(0, trace.Event{Kind: trace.KindStore, Addr: 0x1000 + 200, Size: 4, File: "built.go", Line: 13})
	}
	lockAll(b, 4, 1, true)
	return b.Set()
}

// twoWindowRegion exposes one buffer at rank 0 through windows 1 and 2
// and its upper half through window 3. Ranks 1 and 2 put and accumulate
// through all three while rank 0 stores and loads across the buffer, so
// every local access is checked against several windows' vectors.
func twoWindowRegion() *trace.Set {
	b := testutil.NewTraceBuilder(3)
	b.WinCreate(1, 0x1000, 128)
	b.WinCreate(2, 0x1000, 128)
	b.WinCreate(3, 0x1040, 64)
	for _, win := range []int32{1, 2, 3} {
		lockAll(b, 3, win, false)
	}
	rmaOp(b, 1, trace.KindPut, trace.OpNone, 2, 0, 16, 1)
	rmaOp(b, 1, trace.KindPut, trace.OpNone, 1, 8, 16, 2)
	rmaOp(b, 1, trace.KindPut, trace.OpNone, 3, 0, 8, 3)
	rmaOp(b, 2, trace.KindAccumulate, trace.OpSum, 2, 4, 8, 4)
	rmaOp(b, 2, trace.KindPut, trace.OpNone, 1, 64, 16, 5)
	rmaOp(b, 2, trace.KindGet, trace.OpNone, 3, 4, 8, 6)
	b.Add(0, trace.Event{Kind: trace.KindStore, Addr: 0x1000 + 10, Size: 4, File: "built.go", Line: 7})
	b.Add(0, trace.Event{Kind: trace.KindLoad, Addr: 0x1000 + 66, Size: 8, File: "built.go", Line: 8})
	b.Add(0, trace.Event{Kind: trace.KindStore, Addr: 0x1000 + 120, Size: 4, File: "built.go", Line: 9})
	for _, win := range []int32{1, 2, 3} {
		lockAll(b, 3, win, true)
	}
	return b.Set()
}

// oneSiteTwoClassesRegion has rank 0 issue, from one call site in a loop,
// fetching atomics whose origin buffer (read) and result buffer (written)
// both lie in its own window while rank 1 puts over them: one access site
// reaches the detector as a local load and as a local store against the
// same remote put, two rules that must not fold into one.
func oneSiteTwoClassesRegion() *trace.Set {
	b := testutil.NewTraceBuilder(3)
	b.WinCreate(1, 0x1000, 64)
	lockAll(b, 3, 1, false)
	b.Add(0, trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 2, Lock: trace.LockShared})
	for i := 0; i < 2; i++ {
		rmaOp(b, 1, trace.KindPut, trace.OpNone, 1, 0, 32, 1)
		b.Add(0, trace.Event{Kind: trace.KindFetchOp, Win: 1, Target: 2, AccOp: trace.OpSum,
			OriginAddr: 0x1000 + 8, OriginType: trace.TypeByte, OriginCount: 4,
			ResultAddr: 0x1000 + 16, ResultType: trace.TypeByte, ResultCount: 4,
			TargetDisp: 40, TargetType: trace.TypeByte, TargetCount: 4,
			File: "built.go", Line: 2})
	}
	b.Add(0, trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 2})
	lockAll(b, 3, 1, true)
	return b.Set()
}

// FuzzShadowDifferential checks the cross-process detector against the
// pairwise oracle on generated RMA programs: any seed/pattern combination
// on which their reports differ is a crasher.
func FuzzShadowDifferential(f *testing.F) {
	for pi := range gen.Patterns() {
		f.Add(uint64(500+17*pi), uint8(pi))
		f.Add(uint64(42+13*pi), uint8(pi))
	}
	patterns := gen.Patterns()
	f.Fuzz(func(t *testing.T, seed uint64, pi uint8) {
		p := patterns[int(pi)%len(patterns)]
		base := gen.Generate(seed, gen.Options{Ranks: 2 + int(seed%3)})
		pr, err := gen.Inject(base, p.Name, seed^0x9e3779b9)
		if err != nil {
			// Not every seed offers sites for every pattern; exercise the
			// clean base program instead of discarding the input.
			pr = base
		}
		sink := trace.NewMemorySink()
		if err := mpi.Run(pr.Ranks, mpi.Options{Hook: profiler.New(sink, nil)}, pr.Body()); err != nil {
			t.Skip(fmt.Sprintf("simulate: %v", err))
		}
		checkCrossOracle(t, sink.Set(), core.DefaultOptions())
	})
}

// TestBenchShadowAgreement checks the detector against the oracle on the
// multi-origin worst-case region of the benchmarks, where every operation
// shares one (window, target) vector, with cross-process detection only.
func TestBenchShadowAgreement(t *testing.T) {
	set := experiments.ShadowSyntheticRegion(8, 512)
	if set.Ranks() != 8 {
		t.Fatalf("ranks = %d", set.Ranks())
	}
	opts := core.Options{CrossProcess: true}
	checkCrossOracle(t, set, opts)
	rep, err := core.AnalyzeWith(set, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Error("multi-origin region should report its planted conflict")
	}
}
