package memory

import (
	"maps"
	"runtime"
	"sync"
	"sync/atomic"
)

// Loc is a resolved source location.
type Loc struct {
	File string
	Line int
	Func string
}

// locCache maps a call site's return PC to its resolved location. It is
// copy-on-write: readers load the current map without locking, and a
// miss symbolizes the PC once and publishes an extended copy. Call sites
// are bounded by the program text, so the map stops growing after
// warm-up.
var (
	locCache   atomic.Pointer[map[uintptr]Loc]
	locCacheMu sync.Mutex // serializes publishers
)

// CallerLoc returns the source location skip frames above the caller:
// CallerLoc(0) is the line that calls CallerLoc. Its result is exactly
// runtime.Caller(skip+1)'s file, line and function — runtime.Callers
// walks the same inlining-aware logical frames — but the location is
// symbolized once per call site and then served from a cache keyed by
// the return PC, without locking or allocating. Real instrumentation
// knows its source location statically at zero runtime cost; the cache
// keeps the simulated profiler's per-access cost within the same order
// as the access itself.
func CallerLoc(skip int) Loc {
	var pcs [1]uintptr
	if runtime.Callers(skip+2, pcs[:]) == 0 {
		return Loc{}
	}
	pc := pcs[0]
	if m := locCache.Load(); m != nil {
		if loc, ok := (*m)[pc]; ok {
			return loc
		}
	}
	return resolveLoc(pc)
}

// resolveLoc symbolizes pc and publishes it into the cache.
func resolveLoc(pc uintptr) Loc {
	var loc Loc
	if frame, _ := runtime.CallersFrames([]uintptr{pc}).Next(); frame.PC != 0 {
		loc = Loc{File: frame.File, Line: frame.Line, Func: frame.Function}
	}
	locCacheMu.Lock()
	defer locCacheMu.Unlock()
	var old map[uintptr]Loc
	if m := locCache.Load(); m != nil {
		old = *m
	}
	next := make(map[uintptr]Loc, len(old)+1)
	maps.Copy(next, old)
	next[pc] = loc
	locCache.Store(&next)
	return loc
}
