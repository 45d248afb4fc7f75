package mcchecker

// Benchmarks regenerating the paper's evaluation, one per table/figure
// (run `go test -bench=. -benchmem`). Absolute numbers are machine-local;
// the reproduction targets are the paper's shapes. cmd/mcbench prints the
// corresponding tables with percentages.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/profiler"
	"repro/internal/stream"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// --- Table II: full detection pipeline per bug case ---------------------

func BenchmarkTable2Detection(b *testing.B) {
	for _, bc := range apps.BugCases() {
		bc := bc
		ranks := bc.Ranks
		if ranks > 8 {
			ranks = 8
		}
		b.Run(bc.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink := trace.NewMemorySink()
				pr := profiler.New(sink, profiler.FromNames(bc.RelevantBuffers))
				if err := mpi.Run(ranks, mpi.Options{Hook: pr}, bc.Buggy); err != nil {
					b.Fatal(err)
				}
				rep, err := core.Analyze(sink.Set())
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Errors()) == 0 {
					b.Fatal("bug not detected")
				}
			}
		})
	}
}

// --- Figure 8: native vs profiled vs fully instrumented -----------------

// fig8Ranks keeps the benchmark variant affordable; cmd/mcbench runs the
// paper's 64-rank configuration.
const fig8Ranks = 16

func benchWorkload(b *testing.B, body func(p *mpi.Proc) error, hook mpi.Hook) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := mpi.Run(fig8Ranks, mpi.Options{Hook: hook}, body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	for _, wl := range apps.Workloads() {
		wl := wl
		body := wl.Body(0.5)
		b.Run(wl.Name+"/native", func(b *testing.B) {
			benchWorkload(b, body, nil)
		})
		b.Run(wl.Name+"/profiled", func(b *testing.B) {
			pr := profiler.New(trace.NewCountingSink(nil), profiler.FromNames(wl.RelevantBuffers))
			benchWorkload(b, body, pr)
		})
		b.Run(wl.Name+"/fullinstr", func(b *testing.B) {
			pr := profiler.New(trace.NewCountingSink(nil), nil)
			benchWorkload(b, body, pr)
		})
	}
}

// --- Figure 9/10: LU strong scaling --------------------------------------

func BenchmarkFig9LU(b *testing.B) {
	const n = 128
	for _, ranks := range []int{8, 16, 32, 64} {
		ranks := ranks
		body := apps.LUWorkload(n)
		b.Run(fmt.Sprintf("ranks%d/native", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := mpi.Run(ranks, mpi.Options{}, body); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("ranks%d/profiled", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pr := profiler.New(trace.NewCountingSink(nil), profiler.FromNames([]string{"matrix", "panel"}))
				if err := mpi.Run(ranks, mpi.Options{Hook: pr}, body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §IV-C-4 ablation: linear vs quadratic cross-process detection -------

func BenchmarkAblationLinearVsQuadratic(b *testing.B) {
	for _, ops := range []int{256, 1024, 4096} {
		set := experiments.SyntheticRegion(16, ops)
		b.Run(fmt.Sprintf("linear/ops%d", ops), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := core.AnalyzeWith(set, core.Options{CrossProcess: true})
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Violations) == 0 {
					b.Fatal("planted conflict missed")
				}
			}
		})
		b.Run(fmt.Sprintf("quadratic/ops%d", ops), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := baseline.QuadraticAnalyze(set)
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Violations) == 0 {
					b.Fatal("planted conflict missed")
				}
			}
		})
	}
}

// --- §IV-C-3: within-epoch detection over one large epoch ----------------

// BenchmarkIntraEpoch times intra-only detection of one fence epoch in
// which rank 0 issues n Puts, each from its own origin word to its own
// target word, in a strided order. The front end runs once, untimed.
func BenchmarkIntraEpoch(b *testing.B) {
	for _, puts := range []int{512, 4096} {
		tb := testutil.NewTraceBuilder(2)
		tb.WinCreate(1, 0x100000, uint64(8*puts))
		tb.Fence(1)
		for k := 0; k < puts; k++ {
			w := uint64(k*7919) % uint64(puts)
			tb.Add(0, trace.Event{Kind: trace.KindPut, Win: 1, Target: 1,
				OriginAddr: 0x10000 + 8*w, OriginType: trace.TypeFloat64, OriginCount: 1,
				TargetDisp: 8 * w, TargetType: trace.TypeFloat64, TargetCount: 1,
				File: "bench.go", Line: int32(k)})
		}
		tb.Fence(1)
		m, err := model.Build(tb.Set())
		if err != nil {
			b.Fatal(err)
		}
		ms, err := match.Run(m)
		if err != nil {
			b.Fatal(err)
		}
		d, err := dag.Build(m, ms)
		if err != nil {
			b.Fatal(err)
		}
		epochs, opEpoch, err := core.ExtractEpochs(m)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("puts%d", puts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := core.NewAnalyzer(m, d, epochs, opEpoch, core.Options{IntraEpoch: true}).Run()
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Violations) != 0 {
					b.Fatal("disjoint puts flagged")
				}
			}
		})
	}
}

// --- DESIGN decision ablations -------------------------------------------

// Vector clocks (O(1) queries after one pass) vs naive reachability.
func BenchmarkHappensBeforeQueries(b *testing.B) {
	sink := trace.NewMemorySink()
	pr := profiler.New(sink, nil)
	if err := mpi.Run(8, mpi.Options{Hook: pr}, apps.LUWorkload(48)); err != nil {
		b.Fatal(err)
	}
	set := sink.Set()
	m, err := model.Build(set)
	if err != nil {
		b.Fatal(err)
	}
	ms, err := match.Run(m)
	if err != nil {
		b.Fatal(err)
	}
	d, err := dag.Build(m, ms)
	if err != nil {
		b.Fatal(err)
	}
	n := dag.BuildNaive(m, ms)
	// Query pairs spread across the trace.
	var pairs [][2]trace.ID
	for r := 0; r < set.Ranks(); r++ {
		t := set.Traces[r]
		q := (r + 3) % set.Ranks()
		u := set.Traces[q]
		for i := 0; i < len(t.Events); i += 97 {
			j := (i * 31) % len(u.Events)
			pairs = append(pairs, [2]trace.ID{t.Events[i].ID(), u.Events[j].ID()})
		}
	}
	b.Run("vectorclock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			_ = d.Concurrent(p[0], p[1])
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			_ = n.Concurrent(p[0], p[1])
		}
	})
}

// Algorithm 1 (progress counters) vs scanning all traces per call.
func BenchmarkSyncMatching(b *testing.B) {
	sink := trace.NewMemorySink()
	pr := profiler.New(sink, nil)
	if err := mpi.Run(8, mpi.Options{Hook: pr}, apps.SKaMPI(6)); err != nil {
		b.Fatal(err)
	}
	m, err := model.Build(sink.Set())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("algorithm1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := match.Run(m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := match.RunNaive(m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Multithreaded DN-Analyzer (§VI planned work): serial vs parallel
// cross-process detection over many regions. Regions are embarrassingly
// parallel, so on a multicore machine workers4 approaches a linear speedup;
// on single-core machines (like some CI hosts) the two variants tie, which
// is itself the correct result. Equivalence of results is asserted
// separately in TestParallelAnalysisEquivalence.
func BenchmarkParallelRegions(b *testing.B) {
	sink := trace.NewMemorySink()
	pr := profiler.New(sink, nil)
	body := func(p *mpi.Proc) error {
		win := p.Alloc(512, "win")
		w := p.WinCreate(win, 1, p.CommWorld())
		p.Barrier(p.CommWorld())
		src := p.Alloc(64, "src")
		for i := 0; i < 40; i++ {
			for k := 0; k < 6; k++ {
				target := (p.Rank() + 1 + k) % p.Size()
				w.Lock(mpi.LockShared, target)
				w.Put(src, 0, 8, mpi.Float64, target, uint64(p.Rank())*64, 8, mpi.Float64)
				w.Unlock(target)
			}
			p.Barrier(p.CommWorld())
		}
		w.Free()
		return nil
	}
	if err := mpi.Run(8, mpi.Options{Hook: pr}, body); err != nil {
		b.Fatal(err)
	}
	set := sink.Set()
	// Build the pipeline once; benchmark only the detection phase that
	// Workers parallelizes.
	m, err := model.Build(set)
	if err != nil {
		b.Fatal(err)
	}
	ms, err := match.Run(m)
	if err != nil {
		b.Fatal(err)
	}
	d, err := dag.Build(m, ms)
	if err != nil {
		b.Fatal(err)
	}
	epochs, opEpoch, err := core.ExtractEpochs(m)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.Options{CrossProcess: true, Workers: workers}
				rep, err := core.NewAnalyzer(m, d, epochs, opEpoch, opts).Run()
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Violations) != 0 {
					b.Fatal("race-free pattern flagged")
				}
			}
		})
	}
}

// --- §VII comparison: SyncChecker baseline -------------------------------

func BenchmarkSyncCheckerBaseline(b *testing.B) {
	bc := apps.BugCases()[0] // emulate
	sink := trace.NewMemorySink()
	pr := profiler.New(sink, nil)
	if err := mpi.Run(2, mpi.Options{Hook: pr}, bc.Buggy); err != nil {
		b.Fatal(err)
	}
	set := sink.Set()
	b.Run("mcchecker", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Analyze(set); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("synccheck", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.SyncCheckerAnalyze(set); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- §VII-B extension: streaming (online) vs batch (offline) analysis ----

func BenchmarkStreamVsBatch(b *testing.B) {
	body := func(p *mpi.Proc) error {
		win := p.Alloc(256, "win")
		w := p.WinCreate(win, 1, p.CommWorld())
		for i := 0; i < 10; i++ {
			w.Fence(mpi.AssertNone)
			src := p.Alloc(8, "src")
			w.Put(src, 0, 1, mpi.Int64, (p.Rank()+1)%p.Size(), uint64(p.Rank())*8, 1, mpi.Int64)
			w.Fence(mpi.AssertNone)
			p.Barrier(p.CommWorld())
		}
		w.Free()
		return nil
	}
	b.Run("online", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sc := stream.New(4, nil)
			pr := profiler.New(sc, nil)
			if err := mpi.Run(4, mpi.Options{Hook: pr}, body); err != nil {
				b.Fatal(err)
			}
			if _, err := sc.Finish(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink := trace.NewMemorySink()
			pr := profiler.New(sink, nil)
			if err := mpi.Run(4, mpi.Options{Hook: pr}, body); err != nil {
				b.Fatal(err)
			}
			if _, err := core.Analyze(sink.Set()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Profiler hot path ----------------------------------------------------

func BenchmarkProfilerEmitCost(b *testing.B) {
	// One rank storing repeatedly: isolates the per-access instrumentation
	// cost that Figure 8's overhead consists of. The sink variants add
	// what collecting the trace costs on top: in memory (set assembly
	// included) or encoded to a trace file as the events arrive.
	run := func(b *testing.B, hook mpi.Hook, stores int) {
		b.Helper()
		err := mpi.Run(1, mpi.Options{Hook: hook}, func(p *mpi.Proc) error {
			buf := p.AllocFloat64(8, "hot")
			for i := 0; i < stores; i++ {
				buf.SetFloat64(0, float64(i))
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Run("native", func(b *testing.B) {
		b.ReportAllocs()
		run(b, nil, b.N)
	})
	b.Run("profiled", func(b *testing.B) {
		b.ReportAllocs()
		run(b, profiler.New(trace.NewCountingSink(nil), nil), b.N)
	})
	b.Run("memory-sink", func(b *testing.B) {
		// Fresh sinks of at most 1<<14 events keep the held trace small
		// however large b.N grows.
		b.ReportAllocs()
		for done := 0; done < b.N; {
			n := min(b.N-done, 1<<14)
			sink := trace.NewMemorySink()
			run(b, profiler.New(sink, nil), n)
			if sink.Set().TotalEvents() != n {
				b.Fatal("events lost")
			}
			done += n
		}
	})
	b.Run("file-sink", func(b *testing.B) {
		b.ReportAllocs()
		sink, err := trace.NewFileSink(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		run(b, profiler.New(sink, nil), b.N)
		if err := sink.Close(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkEncodeTrace measures the codec's encode side on a profiled
// Figure 8 workload trace, one rank stream per op.
func BenchmarkEncodeTrace(b *testing.B) {
	wl := apps.Workloads()[0]
	sink := trace.NewMemorySink()
	if err := mpi.Run(8, mpi.Options{Hook: profiler.New(sink, nil)}, wl.Body(0.5)); err != nil {
		b.Fatal(err)
	}
	tr := sink.Set().Traces[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := trace.EncodeTrace(tr)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(enc)))
	}
	b.ReportMetric(float64(len(tr.Events)), "events/op")
}

// BenchmarkDecodeTrace measures the codec's decode side on the same
// trace, one rank stream per op.
func BenchmarkDecodeTrace(b *testing.B) {
	wl := apps.Workloads()[0]
	sink := trace.NewMemorySink()
	if err := mpi.Run(8, mpi.Options{Hook: profiler.New(sink, nil)}, wl.Body(0.5)); err != nil {
		b.Fatal(err)
	}
	enc, err := trace.EncodeTrace(sink.Set().Traces[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadTrace(bytes.NewReader(enc)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Analysis pipeline stages (profiling the offline side) ---------------

func BenchmarkAnalysisPipeline(b *testing.B) {
	// A moderately sized clean workload trace.
	sink := trace.NewMemorySink()
	pr := profiler.New(sink, nil)
	if err := mpi.Run(8, mpi.Options{Hook: pr}, apps.LUWorkload(64)); err != nil {
		b.Fatal(err)
	}
	set := sink.Set()
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := core.Analyze(set)
			if err != nil {
				b.Fatal(err)
			}
			if len(rep.Violations) != 0 {
				b.Fatal("unexpected violations")
			}
		}
	})
}
