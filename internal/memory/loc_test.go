package memory_test

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/memory"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// refLoc is the uncached reference: the file, line and function that
// runtime.Caller(skip+1) reports, i.e. skip frames above refLoc's caller.
func refLoc(skip int) memory.Loc {
	pc, file, line, ok := runtime.Caller(skip + 1)
	if !ok {
		return memory.Loc{}
	}
	return memory.Loc{File: file, Line: line, Func: runtime.FuncForPC(pc).Name()}
}

func checkLoc(t *testing.T, site string, got, want memory.Loc) {
	t.Helper()
	if got != want {
		t.Errorf("%s: CallerLoc = %+v, runtime.Caller = %+v", site, got, want)
	}
	if got.File == "" || got.Line == 0 || got.Func == "" {
		t.Errorf("%s: incomplete location %+v", site, got)
	}
}

//go:noinline
func directSite() (memory.Loc, memory.Loc) {
	return memory.CallerLoc(0), refLoc(0)
}

//go:noinline
func callerSite() (memory.Loc, memory.Loc) {
	return memory.CallerLoc(1), refLoc(1)
}

// inlinableSite is small enough to be inlined into its callers; skip 1
// must still name the caller's line, not the helper's.
func inlinableSite() (memory.Loc, memory.Loc) {
	return memory.CallerLoc(1), refLoc(1)
}

type siteRecv struct{ skip int }

func (r siteRecv) locs() (memory.Loc, memory.Loc) {
	return memory.CallerLoc(r.skip), refLoc(r.skip)
}

// pairWith returns want alongside the location got from the same call
// site, so both can be taken on one source line.
func pairWith(got, want memory.Loc) (memory.Loc, memory.Loc) { return got, want }

func TestCallerLocMatchesRuntimeCaller(t *testing.T) {
	// Run every site twice: the first call symbolizes, the second hits the
	// cache.
	for pass := 0; pass < 2; pass++ {
		got, want := directSite()
		checkLoc(t, "direct", got, want)

		got, want = callerSite()
		checkLoc(t, "direct skip 1", got, want)

		got, want = inlinableSite()
		checkLoc(t, "inlinable helper", got, want)

		closure := func() (memory.Loc, memory.Loc) { return memory.CallerLoc(0), refLoc(0) }
		got, want = closure()
		checkLoc(t, "closure", got, want)
		nested := func() (memory.Loc, memory.Loc) { return callerSite() }
		got, want = nested()
		checkLoc(t, "closure calling skip-1 site", got, want)

		m := siteRecv{skip: 0}.locs
		got, want = m()
		checkLoc(t, "method value", got, want)
		m = siteRecv{skip: 1}.locs
		got, want = m()
		checkLoc(t, "method value skip 1", got, want)

		a, b, want := memory.CallerLoc(0), memory.CallerLoc(0), refLoc(0)
		checkLoc(t, "two sites on one line (first)", a, want)
		checkLoc(t, "two sites on one line (second)", b, want)
	}
}

// locHook records each MPI call's logged location.
type locHook struct {
	mu   sync.Mutex
	locs []memory.Loc
}

func (h *locHook) MPICall(_ *mpi.Proc, ev trace.Event) {
	h.mu.Lock()
	h.locs = append(h.locs, memory.Loc{File: ev.File, Line: int(ev.Line), Func: ev.Func})
	h.mu.Unlock()
}

func (h *locHook) BufferAllocated(*mpi.Proc, *memory.Buffer) {}

// barrierWrapper is a library routine that logs its caller's location.
func barrierWrapper(p *mpi.Proc) memory.Loc {
	p.WithCallDepth(1).Barrier(p.CommWorld())
	return memory.Loc{}
}

// nestedWrapper goes through two wrapper frames.
func nestedWrapper(p *mpi.Proc) memory.Loc {
	return barrierWrapper(p.WithCallDepth(1))
}

func TestCallerLocThroughWithCallDepth(t *testing.T) {
	h := &locHook{}
	var want []memory.Loc
	err := mpi.Run(1, mpi.Options{Hook: h}, func(p *mpi.Proc) error {
		for pass := 0; pass < 2; pass++ {
			_, w := pairWith(barrierWrapper(p), refLoc(0))
			want = append(want, w)
			_, w = pairWith(nestedWrapper(p), refLoc(0))
			want = append(want, w)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.locs) != len(want) {
		t.Fatalf("logged %d calls, want %d", len(h.locs), len(want))
	}
	for i := range want {
		checkLoc(t, "WithCallDepth wrapper", h.locs[i], want[i])
	}
}

// TestCallerLocConcurrent resolves shared and per-goroutine sites from
// many goroutines at once; run it under -race.
func TestCallerLocConcurrent(t *testing.T) {
	sites := []func() (memory.Loc, memory.Loc){
		func() (memory.Loc, memory.Loc) { return memory.CallerLoc(0), refLoc(0) },
		func() (memory.Loc, memory.Loc) { return memory.CallerLoc(0), refLoc(0) },
		func() (memory.Loc, memory.Loc) { return memory.CallerLoc(0), refLoc(0) },
		func() (memory.Loc, memory.Loc) { return memory.CallerLoc(0), refLoc(0) },
		func() (memory.Loc, memory.Loc) { return memory.CallerLoc(0), refLoc(0) },
		func() (memory.Loc, memory.Loc) { return memory.CallerLoc(0), refLoc(0) },
		func() (memory.Loc, memory.Loc) { return memory.CallerLoc(0), refLoc(0) },
		func() (memory.Loc, memory.Loc) { return memory.CallerLoc(0), refLoc(0) },
	}
	shared := func() (memory.Loc, memory.Loc) { return memory.CallerLoc(0), refLoc(0) }
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(own func() (memory.Loc, memory.Loc)) {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				for _, site := range []func() (memory.Loc, memory.Loc){own, shared} {
					if got, want := site(); got != want {
						errs <- got.Func
						return
					}
				}
			}
		}(sites[g%len(sites)])
	}
	close(start)
	wg.Wait()
	close(errs)
	for f := range errs {
		t.Errorf("concurrent resolution disagreed with runtime.Caller at %s", f)
	}
}

func TestCallerLocWarmDoesNotAllocate(t *testing.T) {
	site := func() memory.Loc { return memory.CallerLoc(1) }
	site()
	if n := testing.AllocsPerRun(1000, func() { site() }); n != 0 {
		t.Errorf("warm CallerLoc allocates %.1f times per call, want 0", n)
	}
}
