package mcchecker

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

// TestReportsByteIdenticalAcrossWorkers is the contract behind the
// pipeline-parallel front end: for every bundled bug case, analyzing the
// same trace set at any worker count — and analyzing it again after a
// WriteDir → ReadDir round trip through the concurrent decoder — must
// produce byte-identical text and JSON reports.
func TestReportsByteIdenticalAcrossWorkers(t *testing.T) {
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, bc := range apps.BugCases() {
		bc := bc
		t.Run(bc.Name, func(t *testing.T) {
			ranks := bc.Ranks
			if ranks > 8 {
				ranks = 8
			}
			sink := trace.NewMemorySink()
			var rel profiler.Relevance
			if bc.RelevantBuffers != nil {
				rel = profiler.FromNames(bc.RelevantBuffers)
			}
			pr := profiler.New(sink, rel)
			if err := mpi.Run(ranks, mpi.Options{Hook: pr}, bc.Buggy); err != nil {
				t.Fatal(err)
			}
			set := sink.Set()

			analyze := func(s *trace.Set, workers int) (string, []byte) {
				opts := core.DefaultOptions()
				opts.Workers = workers
				rep, err := core.AnalyzeWith(s, opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				js, err := rep.JSON()
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return rep.String(), js
			}

			baseText, baseJSON := analyze(set, workerCounts[0])
			if baseText == "" {
				t.Fatal("empty report text")
			}
			for _, w := range workerCounts[1:] {
				text, js := analyze(set, w)
				if text != baseText {
					t.Errorf("workers=%d: report text diverged\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
						w, baseText, w, text)
				}
				if !bytes.Equal(js, baseJSON) {
					t.Errorf("workers=%d: report JSON diverged", w)
				}
			}

			// File round trip: the concurrent per-rank decode must hand the
			// analyzer the identical set.
			dir := t.TempDir()
			if err := trace.WriteDir(dir, set); err != nil {
				t.Fatal(err)
			}
			loaded, err := trace.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			text, js := analyze(loaded, runtime.GOMAXPROCS(0))
			if text != baseText {
				t.Errorf("after ReadDir: report text diverged\n--- in-memory ---\n%s\n--- decoded ---\n%s",
					baseText, text)
			}
			if !bytes.Equal(js, baseJSON) {
				t.Error("after ReadDir: report JSON diverged")
			}
		})
	}
}

// simulate runs a per-rank body under the profiler and returns the trace
// set, exactly like the offline front end would capture it.
func simulate(ranks int, rel profiler.Relevance, body func(p *mpi.Proc) error) (*trace.Set, error) {
	sink := trace.NewMemorySink()
	pr := profiler.New(sink, rel)
	if err := mpi.Run(ranks, mpi.Options{Hook: pr}, body); err != nil {
		return nil, err
	}
	return sink.Set(), nil
}

// genCase builds one injected generator program for a pattern, retrying
// a few seeds because not every seed offers sites for every pattern.
func genCase(pattern string, seed uint64) (*gen.Program, error) {
	var lastErr error
	for attempt := 0; attempt < 16; attempt++ {
		s := seed + uint64(attempt)*31
		base := gen.Generate(s, gen.Options{Ranks: 2 + int(s%3)})
		pr, err := gen.Inject(base, pattern, s^0x9e3779b9)
		if err == nil {
			return pr, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// checkEngineAgreement asserts that the pairwise and shadow engines
// render byte-identical reports on the set at the given worker count and
// that the differential engine (which re-derives both and compares
// violation identities internally) accepts the trace.
func checkEngineAgreement(t *testing.T, set *trace.Set, workers int) {
	t.Helper()
	run := func(engine core.Engine) (string, []byte) {
		opts := core.DefaultOptions()
		opts.Workers = workers
		opts.Engine = engine
		rep, err := core.AnalyzeWith(set, opts)
		if err != nil {
			t.Fatalf("workers=%d engine=%s: %v", workers, engine, err)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatalf("workers=%d engine=%s: %v", workers, engine, err)
		}
		return rep.String(), js
	}
	pText, pJSON := run(core.EnginePairwise)
	sText, sJSON := run(core.EngineShadow)
	if sText != pText {
		t.Errorf("workers=%d: shadow report diverged from pairwise\n--- pairwise ---\n%s\n--- shadow ---\n%s",
			workers, pText, sText)
	}
	if !bytes.Equal(sJSON, pJSON) {
		t.Errorf("workers=%d: shadow JSON diverged from pairwise", workers)
	}
	opts := core.DefaultOptions()
	opts.Workers = workers
	opts.Engine = core.EngineDifferential
	if _, err := core.AnalyzeWith(set, opts); err != nil {
		t.Errorf("workers=%d: differential engine: %v", workers, err)
	}
}

// TestShadowPairwiseDifferentialSweep is the cross-engine contract: over
// every bundled bug case and one injected generator program per bug
// pattern, the shadow engine must render byte-identical reports to the
// pairwise reference at every worker count, and the differential engine
// must find no disagreement.
func TestShadowPairwiseDifferentialSweep(t *testing.T) {
	workerCounts := []int{1, runtime.GOMAXPROCS(0)}

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
		pr, err := genCase(p.Name, uint64(400+17*pi))
		if err != nil {
			t.Fatalf("gen/%s: %v", p.Name, err)
		}
		cases = append(cases, sweepCase{"gen/" + p.Name, pr.Ranks, nil, pr.Body()})
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			set, err := simulate(c.ranks, c.rel, c.body)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts {
				checkEngineAgreement(t, set, w)
			}
		})
	}

	// Hand-built regions that stress the shadow store's deferred cover:
	// the benchmark's hot region with its puts permuted as perfbench
	// permutes them, puts of one rank that overlap each other before
	// later ranks split their cells, and windows sharing one buffer.
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
		builtCase{"built/two-windows", twoWindowRegion()})
	for _, c := range built {
		t.Run(c.name, func(t *testing.T) {
			for _, w := range workerCounts {
				checkEngineAgreement(t, c.set, w)
			}
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

// FuzzShadowDifferential drives the differential engine over generated
// RMA programs: any seed/pattern combination on which the shadow engine
// disagrees with the pairwise reference is a crasher.
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
		set, err := simulate(pr.Ranks, nil, pr.Body())
		if err != nil {
			t.Skip(fmt.Sprintf("simulate: %v", err))
		}
		checkEngineAgreement(t, set, 1)
		checkEngineAgreement(t, set, runtime.GOMAXPROCS(0))
	})
}
