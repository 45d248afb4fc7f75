package core_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/trace"
)

// Analyze's allocations do not follow the operation count: the
// footprints of all operations share one arena per rank and the
// detectors reuse pooled scratch, so four times the puts of the hot
// region cost at most half again the allocations.
func TestAnalyzeAllocsFlatInOps(t *testing.T) {
	allocs := func(n int) float64 {
		set := experiments.ShadowSyntheticRegion(8, n)
		return testing.AllocsPerRun(10, func() {
			rep, err := core.Analyze(set)
			if err != nil || len(rep.Errors()) == 0 {
				t.Fatalf("n=%d: %v\n%v", n, err, rep)
			}
		})
	}
	small, large := allocs(1024), allocs(4096)
	if large > 1.5*small {
		t.Errorf("allocs per Analyze: %v for 1024 puts, %v for 4096 (> 1.5x)", small, large)
	}
}

// After Analyze returns, the pooled detector scratch keeps no trace set
// alive and carries nothing into the next analysis: over many distinct
// programs every set's events are collected while the pooled scratch is
// held, and the scratch holds no site, class, rule, dedup key or
// operation of an earlier analysis. One P keeps every analysis on the
// pool's one local slot, where HoldScratch finds it.
func TestPooledScratchRetainsNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const programs = 40
	var collected atomic.Int32
	analyzeOne := func(i int) {
		p := gen.Patterns()[i%len(gen.Patterns())]
		pr, err := genProgram(p.Name, uint64(900+31*i))
		if err != nil {
			t.Fatalf("gen/%s: %v", p.Name, err)
		}
		set := simulate(t, pr.Ranks, nil, pr.Body())
		if _, err := core.Analyze(set); err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		runtime.SetFinalizer(&set.Traces[0].Events[0], func(*trace.Event) { collected.Add(1) })
		if n := core.ScratchResidue(); n != 0 {
			t.Fatalf("program %d: the pooled scratch still holds %d items of the analysis", i, n)
		}
	}
	for i := 0; i < programs; i++ {
		analyzeOne(i)
	}
	defer core.HoldScratch()()
	for try := 0; try < 100 && collected.Load() < programs; try++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if n := collected.Load(); n < programs {
		t.Errorf("%d of %d analyzed trace sets are still reachable", programs-n, programs)
	}
}

// Analyses running at once, serially and with region workers, each take
// their own scratch from the pool: every report equals the one a lone
// analysis gives.
func TestConcurrentAnalysesSharePool(t *testing.T) {
	var sets []*trace.Set
	var want []string
	for i, p := range gen.Patterns() {
		pr, err := genProgram(p.Name, uint64(1300+29*i))
		if err != nil {
			t.Fatalf("gen/%s: %v", p.Name, err)
		}
		set := simulate(t, pr.Ranks, nil, pr.Body())
		rep, err := core.Analyze(set)
		if err != nil {
			t.Fatal(err)
		}
		sets, want = append(sets, set), append(want, rep.String())
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, set := range sets {
					opts := core.DefaultOptions()
					opts.Workers = 1 + (g+i)%3
					rep, err := core.AnalyzeWith(set, opts)
					if err != nil {
						t.Error(err)
						return
					}
					if got := rep.String(); got != want[i] {
						t.Errorf("goroutine %d, program %d, %d workers: report differs:\n%s\nwant:\n%s", g, i, opts.Workers, got, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
