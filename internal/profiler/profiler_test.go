package profiler

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
)

// runEmulateLike runs a 2-rank program with one window put and local
// accesses on two buffers, returning the collected trace set.
func runEmulateLike(t *testing.T, relevant Relevance) *trace.Set {
	t.Helper()
	sink := trace.NewMemorySink()
	pr := New(sink, relevant)
	err := mpi.Run(2, mpi.Options{Hook: pr}, func(p *mpi.Proc) error {
		win := p.Alloc(16, "window")
		scratch := p.Alloc(16, "scratch")
		w := p.WinCreate(win, 1, p.CommWorld())
		w.Fence(mpi.AssertNone)
		if p.Rank() == 0 {
			src := p.Alloc(8, "srcbuf")
			src.SetInt64(0, 5)     // store on srcbuf
			scratch.SetInt64(0, 1) // store on scratch
			_ = scratch.Int64At(0) // load on scratch
			w.Put(src, 0, 1, mpi.Int64, 1, 0, 1, mpi.Int64)
		}
		w.Fence(mpi.AssertNone)
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	set := sink.Set()
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	return set
}

func countKind(set *trace.Set, rank int32, k trace.Kind) int {
	n := 0
	for _, ev := range set.Traces[rank].Events {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

func TestFullInstrumentationSeesAllAccesses(t *testing.T) {
	set := runEmulateLike(t, nil)
	if got := countKind(set, 0, trace.KindStore); got != 2 {
		t.Errorf("stores = %d, want 2", got)
	}
	if got := countKind(set, 0, trace.KindLoad); got != 1 {
		t.Errorf("loads = %d, want 1", got)
	}
}

func TestSelectiveInstrumentationFilters(t *testing.T) {
	// ST-Analyzer-style report: only the window and the put origin matter.
	set := runEmulateLike(t, FromNames([]string{"window", "srcbuf"}))
	if got := countKind(set, 0, trace.KindStore); got != 1 {
		t.Errorf("stores = %d, want 1 (scratch must be filtered)", got)
	}
	if got := countKind(set, 0, trace.KindLoad); got != 0 {
		t.Errorf("loads = %d, want 0", got)
	}
	// MPI call events are always logged regardless of relevance.
	if got := countKind(set, 0, trace.KindPut); got != 1 {
		t.Errorf("puts = %d", got)
	}
	if got := countKind(set, 1, trace.KindWinFence); got != 2 {
		t.Errorf("fences on rank 1 = %d", got)
	}
}

func TestEventOrderInterleavesCallsAndAccesses(t *testing.T) {
	set := runEmulateLike(t, nil)
	// On rank 0 the program order is:
	// WinCreate, Fence, store(srcbuf), store(scratch), load(scratch), Put, Fence, Free.
	var kinds []trace.Kind
	for _, ev := range set.Traces[0].Events {
		kinds = append(kinds, ev.Kind)
	}
	want := []trace.Kind{
		trace.KindWinCreate, trace.KindWinFence,
		trace.KindStore, trace.KindStore, trace.KindLoad,
		trace.KindPut, trace.KindWinFence, trace.KindWinFree,
	}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v, want %v (all: %v)", i, kinds[i], want[i], kinds)
		}
	}
}

func TestAccessEventsCarryLocation(t *testing.T) {
	set := runEmulateLike(t, nil)
	for _, ev := range set.Traces[0].Events {
		if ev.Kind.IsLocalAccess() {
			if !strings.HasSuffix(ev.File, "profiler_test.go") || ev.Line == 0 {
				t.Errorf("access without app location: %v", ev.String())
			}
		}
	}
}

func TestFromNames(t *testing.T) {
	r := FromNames([]string{"a", "b"})
	if !r("a") || !r("b") || r("c") || r("") {
		t.Error("FromNames predicate wrong")
	}
}

func TestAllInstrumentsEveryBuffer(t *testing.T) {
	if !All("anything") || !All("") {
		t.Error("All must accept every buffer name")
	}
	// All is equivalent to a nil Relevance — unlike FromNames(nil), which
	// instruments nothing.
	none := FromNames(nil)
	if none("anything") {
		t.Error("FromNames(nil) must accept nothing")
	}
	set := runEmulateLike(t, All)
	if got := countKind(set, 0, trace.KindStore); got != 2 {
		t.Errorf("stores under All = %d, want 2", got)
	}
	if got := countKind(set, 0, trace.KindLoad); got != 1 {
		t.Errorf("loads under All = %d, want 1", got)
	}
}

// TestMPICallNoAllocWithoutRegistry guards the emit hot path: with no
// observability registry attached, logging an MPI call event must not
// allocate (the disabled instrumentation is a nil check, nothing more).
func TestMPICallNoAllocWithoutRegistry(t *testing.T) {
	pr := New(trace.NewCountingSink(nil), nil)
	ev := trace.Event{Kind: trace.KindBarrier, Rank: 0}
	if allocs := testing.AllocsPerRun(1000, func() {
		pr.MPICall(nil, ev)
	}); allocs != 0 {
		t.Errorf("MPICall allocates %.1f times per event with nil registry, want 0", allocs)
	}
}

// TestMemorySinkProfileBytes bounds what profiling into a MemorySink
// costs in heap: 100k stores collected and assembled with Set may
// allocate at most 2.5 events' worth of bytes per event — the chunks hold
// each event once and Set copies it once more.
func TestMemorySinkProfileBytes(t *testing.T) {
	const stores = 100_000
	sink := trace.NewMemorySink()
	pr := New(sink, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := mpi.Run(1, mpi.Options{Hook: pr}, func(p *mpi.Proc) error {
		buf := p.AllocFloat64(8, "hot")
		for i := 0; i < stores; i++ {
			buf.SetFloat64(0, float64(i))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	set := sink.Set()
	runtime.ReadMemStats(&after)
	if got := set.TotalEvents(); got != stores {
		t.Fatalf("collected %d events, want %d", got, stores)
	}
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / stores
	limit := 2.5 * float64(unsafe.Sizeof(trace.Event{}))
	t.Logf("%.0f B allocated per event (limit %.0f)", perEvent, limit)
	if perEvent > limit {
		t.Errorf("profiling into a MemorySink allocates %.0f B per event, want <= %.0f", perEvent, limit)
	}
}

// TestEventLayout pins the compact event: no wider than 152 bytes on
// 64-bit targets, and only definition events carry a payload, so the
// loads and stores that dominate every trace hold a nil Def.
func TestEventLayout(t *testing.T) {
	if size := unsafe.Sizeof(trace.Event{}); unsafe.Sizeof(uintptr(0)) == 8 && size > 152 {
		t.Errorf("sizeof(trace.Event) = %d B, want <= 152", size)
	}
	set := runEmulateLike(t, nil)
	accesses := 0
	for _, tr := range set.Traces {
		for i := range tr.Events {
			ev := &tr.Events[i]
			switch {
			case ev.Kind.IsLocalAccess() || ev.Kind.IsRMAComm():
				accesses++
				if ev.Def != nil {
					t.Errorf("%v carries a payload %+v", ev, *ev.Def)
				}
			case ev.Kind == trace.KindWinCreate && ev.Def == nil:
				t.Errorf("%v lost its window payload", ev)
			}
		}
	}
	if accesses == 0 {
		t.Fatal("profiled run logged no accesses")
	}
}

func TestObsCountersMatchTrace(t *testing.T) {
	reg := obs.NewRegistry()
	sink := trace.NewMemorySink()
	pr := NewObs(sink, FromNames([]string{"window", "srcbuf"}), reg)
	err := mpi.Run(2, mpi.Options{Hook: pr}, func(p *mpi.Proc) error {
		win := p.Alloc(16, "window")
		scratch := p.Alloc(16, "scratch")
		w := p.WinCreate(win, 1, p.CommWorld())
		w.Fence(mpi.AssertNone)
		if p.Rank() == 0 {
			src := p.Alloc(8, "srcbuf")
			src.SetInt64(0, 5)
			scratch.SetInt64(0, 1)
			w.Put(src, 0, 1, mpi.Int64, 1, 0, 1, mpi.Int64)
		}
		w.Fence(mpi.AssertNone)
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	set := sink.Set()
	snap := reg.Snapshot()

	// Per-kind counters must agree with the trace the sink collected.
	for _, k := range []trace.Kind{trace.KindWinFence, trace.KindPut, trace.KindStore} {
		want := int64(countKind(set, 0, k) + countKind(set, 1, k))
		if got := snap.CounterValue("mcchecker_profiler_events_total", "kind", k.String()); got != want {
			t.Errorf("events_total{kind=%q} = %d, want %d", k, got, want)
		}
	}
	// Relevance: window+srcbuf hit (window twice: once per rank), scratch
	// misses on both ranks.
	if hits := snap.CounterValue("mcchecker_profiler_relevance_total", "result", "hit"); hits != 3 {
		t.Errorf("relevance hits = %d, want 3", hits)
	}
	if misses := snap.CounterValue("mcchecker_profiler_relevance_total", "result", "miss"); misses != 2 {
		t.Errorf("relevance misses = %d, want 2", misses)
	}
	// Exact per-rank totals come from the collector.
	for rank := int32(0); rank < 2; rank++ {
		want := int64(len(set.Traces[rank].Events))
		got := snap.GaugeValue("mcchecker_profiler_rank_events", "rank", strconv.Itoa(int(rank)))
		if got != want {
			t.Errorf("rank_events{rank=%d} = %d, want %d", rank, got, want)
		}
	}
}

func TestCountingSinkIntegration(t *testing.T) {
	sink := trace.NewCountingSink(nil)
	pr := New(sink, nil)
	err := mpi.Run(2, mpi.Options{Hook: pr}, func(p *mpi.Proc) error {
		b := p.Alloc(8, "x")
		b.SetInt64(0, 1)
		p.Barrier(p.CommWorld())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sink.Stats()
	if st.LoadStore != 2 || st.Collect != 2 {
		t.Errorf("stats = %+v", st)
	}
}
