// Package stream implements the online analysis mode the paper proposes as
// future work (§VII-B: "While MC-Checker analyzes the traces offline, we
// can extend it to perform online analysis by leveraging streaming
// processing algorithms").
//
// The Checker is a trace.Sink: the profiler feeds it events as they are
// emitted, and completed concurrent regions are analyzed as soon as the
// global synchronization closing them has been executed by every rank —
// long before the program finishes. Analyzed events are then discarded, so
// memory is bounded by the largest region rather than the whole execution.
//
// # Slab boundaries
//
// A global synchronization (a barrier-like collective spanning all ranks,
// or a fence/create/free on a world window) is a *clean* boundary when no
// cross-boundary state is pending: no open passive-target or PSCW epoch,
// no one-sided operation issued since the last fence of its window, no
// unreceived message, and no unwaited Irecv. At a clean boundary the
// accumulated slab is analyzed with the ordinary offline pipeline and its
// violations are reported through the callback; at an unclean boundary the
// slab simply keeps growing (coalescing regions), preserving exact
// equivalence with offline analysis. Definition events (communicators,
// datatypes, windows) and a synthetic opening fence per live window are
// re-injected at the start of each subsequent slab so that the slab is
// self-contained.
package stream

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// ErrEmitAfterFinish is the defined misuse error recorded when Emit is
// called on an already-finished checker. Under the serving daemon a
// late-emitting producer goroutine must not corrupt a finalized report;
// the stray event is dropped and the misuse is observable via Err.
var ErrEmitAfterFinish = errors.New("stream: Emit after Finish (event dropped)")

// Checker consumes runtime events and analyzes completed regions online.
type Checker struct {
	mu    sync.Mutex
	ranks int

	onViolation func(v *core.Violation) // optional, called as slabs complete

	// Per-rank pending (not yet analyzed) events.
	pending [][]trace.Event
	// Per-rank positions (indexes into pending) of global sync events.
	globalPos [][]int

	// Definition events of the slabs analyzed so far, per rank, in
	// original order: re-injected at the start of every later slab.
	defs [][]trace.Event

	// Cleanliness state.
	lockDepth    []int // open Win_lock epochs per rank
	lockAllDepth []int
	startDepth   []int            // open Win_start epochs per rank
	postDepth    []int            // open Win_post exposure epochs per rank
	fenceOps     map[[2]int32]int // (rank, win) → ops issued since last fence
	fenceDirty   int              // number of nonzero fenceOps entries
	msgDelta     map[chanKey]int  // sends minus recvs per channel
	msgDirty     int              // number of nonzero msgDelta entries
	irecvOpen    []int            // posted Irecvs not yet waited, per rank
	reqKind      map[reqID]trace.Kind

	// Window registry for boundary classification and fence synthesis.
	winComm     map[int32]int32   // win → comm id
	commSize    map[int32]int     // comm id → member count
	commMembers map[int32][]int32 // comm id → world ranks (nil for world)
	fenceSeen   map[int32]bool    // win → a fence has been executed
	freed       map[int32]bool    // win → freed

	slabsAnalyzed int
	report        *core.Report
	err           error
	tolerant      bool     // degrade failing slabs instead of aborting
	notes         []string // accumulated degradation diagnostics

	// Lifecycle guards. finished latches on the first Finish call:
	// Finish becomes idempotent (repeat calls return the cached result)
	// and later Emits drop their event, recording misuse instead of
	// mutating a report the caller may already hold.
	finished  bool
	finalRep  *core.Report
	finalErr  error
	misuse    error // ErrEmitAfterFinish once a late Emit arrives
	lateEmits int

	// Observability. buffered/peakBuffered track the events held across
	// all ranks — the memory-boundedness claim of online analysis, made
	// checkable. The metric handles are nil without a registry.
	opts          core.Options // analysis options for slabs (Obs rides here)
	buffered      int          // events currently pending across ranks
	peakBuffered  int
	mSlabs        *obs.Counter
	mSlabEvents   *obs.Histogram
	mBoundClean   *obs.Counter
	mBoundUnclean *obs.Counter
	mCoalesced    *obs.Counter
	mPeakBuffered *obs.Gauge
}

type chanKey struct {
	comm, src, dst, tag int32
}

type reqID struct {
	rank, req int32
}

var _ trace.Sink = (*Checker)(nil)

// New returns a streaming checker for a world of the given size.
// onViolation (optional) fires once per new distinct violation, as soon as
// the slab containing it completes.
func New(ranks int, onViolation func(v *core.Violation)) *Checker {
	c := &Checker{
		ranks:        ranks,
		onViolation:  onViolation,
		pending:      make([][]trace.Event, ranks),
		globalPos:    make([][]int, ranks),
		defs:         make([][]trace.Event, ranks),
		lockDepth:    make([]int, ranks),
		lockAllDepth: make([]int, ranks),
		startDepth:   make([]int, ranks),
		postDepth:    make([]int, ranks),
		fenceOps:     map[[2]int32]int{},
		msgDelta:     map[chanKey]int{},
		irecvOpen:    make([]int, ranks),
		reqKind:      map[reqID]trace.Kind{},
		winComm:      map[int32]int32{},
		commSize:     map[int32]int{0: ranks},
		commMembers:  map[int32][]int32{},
		fenceSeen:    map[int32]bool{},
		freed:        map[int32]bool{},
		report:       &core.Report{},
		opts:         core.DefaultOptions(),
	}
	return c
}

// SetObs attaches an observability registry: slab sizes, clean vs unclean
// boundary decisions, coalesced regions, and the peak number of buffered
// events all become measurable, and the per-slab analysis records its
// phase spans into the same registry. Call before the first Emit.
func (c *Checker) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.opts.Obs = reg
	c.mSlabs = reg.Counter("mcchecker_stream_slabs_total")
	c.mSlabEvents = reg.Histogram("mcchecker_stream_slab_events")
	c.mBoundClean = reg.Counter("mcchecker_stream_boundaries_total", "result", "clean")
	c.mBoundUnclean = reg.Counter("mcchecker_stream_boundaries_total", "result", "unclean")
	c.mCoalesced = reg.Counter("mcchecker_stream_coalesced_regions_total")
	c.mPeakBuffered = reg.Gauge("mcchecker_stream_peak_buffered_events")
}

// SetTolerant switches the checker into fault-tolerant mode: a slab that
// fails strict analysis (for example because a crashed rank left
// unmatched communication structure behind) is salvaged with
// core.AnalyzeDegraded instead of aborting the whole online run, and the
// final report's Degraded field carries the loss diagnostics. Call
// before the first Emit.
func (c *Checker) SetTolerant(v bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tolerant = v
}

// Emit implements trace.Sink. It is safe for concurrent use by the rank
// goroutines; slab analysis runs inline in the emitting goroutine that
// completes a boundary (the online analysis cost the paper's future-work
// section anticipates).
func (c *Checker) Emit(ev trace.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		c.misuse = ErrEmitAfterFinish
		c.lateEmits++
		return
	}
	if c.err != nil {
		return
	}
	if int(ev.Rank) >= c.ranks {
		c.err = fmt.Errorf("stream: event from rank %d in a world of %d", ev.Rank, c.ranks)
		return
	}
	c.track(&ev)
	r := ev.Rank
	c.pending[r] = append(c.pending[r], ev)
	c.buffered++
	if c.buffered > c.peakBuffered {
		c.peakBuffered = c.buffered
	}
	if c.isGlobalSync(&ev) {
		c.globalPos[r] = append(c.globalPos[r], len(c.pending[r])-1)
		c.maybeAnalyze()
	}
}

// track updates registries and cleanliness counters.
func (c *Checker) track(ev *trace.Event) {
	r := ev.Rank
	switch ev.Kind {
	case trace.KindCommCreate:
		members := ev.Payload().Members
		c.commSize[ev.Comm] = len(members)
		c.commMembers[ev.Comm] = append([]int32(nil), members...)
	case trace.KindWinCreate:
		c.winComm[ev.Win] = ev.Comm
	case trace.KindWinFree:
		c.freed[ev.Win] = true
	case trace.KindWinFence:
		key := [2]int32{r, ev.Win}
		if c.fenceOps[key] > 0 {
			c.fenceDirty--
		}
		c.fenceOps[key] = 0
		c.fenceSeen[ev.Win] = true
	case trace.KindWinLock:
		c.lockDepth[r]++
	case trace.KindWinUnlock:
		c.lockDepth[r]--
	case trace.KindWinLockAll:
		c.lockAllDepth[r]++
	case trace.KindWinUnlockAll:
		c.lockAllDepth[r]--
	case trace.KindWinStart:
		c.startDepth[r]++
	case trace.KindWinComplete:
		c.startDepth[r]--
	case trace.KindWinPost:
		c.postDepth[r]++
	case trace.KindWinWait:
		c.postDepth[r]--
	case trace.KindSend, trace.KindIsend:
		if ev.Kind == trace.KindIsend {
			c.reqKind[reqID{r, ev.Req}] = trace.KindIsend
		}
		c.bumpMsg(chanKey{ev.Comm, r, ev.Peer, ev.Tag}, +1)
	case trace.KindRecv:
		c.bumpMsg(chanKey{ev.Comm, ev.Peer, r, ev.Tag}, -1)
	case trace.KindIrecv:
		c.reqKind[reqID{r, ev.Req}] = trace.KindIrecv
		c.irecvOpen[r]++
	case trace.KindWaitReq:
		if c.reqKind[reqID{r, ev.Req}] == trace.KindIrecv {
			c.irecvOpen[r]--
			c.bumpMsg(chanKey{ev.Comm, ev.Peer, r, ev.Tag}, -1)
		}
	case trace.KindPut, trace.KindGet, trace.KindAccumulate,
		trace.KindGetAccumulate, trace.KindFetchOp, trace.KindCompareSwap:
		// Count only fence-mode operations: ops under an open lock,
		// lock_all, or start epoch complete at that epoch's close.
		if c.lockDepth[ev.Rank] == 0 && c.lockAllDepth[ev.Rank] == 0 && c.startDepth[ev.Rank] == 0 {
			key := [2]int32{r, ev.Win}
			if c.fenceOps[key] == 0 {
				c.fenceDirty++
			}
			c.fenceOps[key]++
		}
	}
}

// Note: the send side of a message is logged with the destination rank
// relative to the communicator; translating to world ranks would require
// the registry, but for balance counting a consistent keying suffices as
// long as both sides agree. The send uses (comm, srcWorld, dstRel) and the
// receive (comm, srcRel, dstWorld); for the world communicator these
// coincide. For sub-communicators the two sides may use different keys,
// making the balance conservatively nonzero (unclean) — correctness is
// preserved, granularity suffers only for sub-communicator p2p traffic.
func (c *Checker) bumpMsg(key chanKey, delta int) {
	old := c.msgDelta[key]
	nv := old + delta
	c.msgDelta[key] = nv
	if old == 0 && nv != 0 {
		c.msgDirty++
	}
	if old != 0 && nv == 0 {
		c.msgDirty--
	}
}

// isGlobalSync reports whether ev is a barrier-like synchronization
// spanning all ranks (a region delimiter).
func (c *Checker) isGlobalSync(ev *trace.Event) bool {
	switch ev.Kind {
	case trace.KindBarrier, trace.KindAllreduce, trace.KindAllgather, trace.KindAlltoall:
		return c.commSize[ev.Comm] == c.ranks
	case trace.KindWinFence, trace.KindWinCreate, trace.KindWinFree:
		comm, ok := c.winComm[ev.Win]
		return ok && c.commSize[comm] == c.ranks
	}
	return false
}

// clean reports whether the current boundary carries no cross-slab state.
func (c *Checker) clean() bool {
	for r := 0; r < c.ranks; r++ {
		if c.lockDepth[r] != 0 || c.lockAllDepth[r] != 0 ||
			c.startDepth[r] != 0 || c.postDepth[r] != 0 || c.irecvOpen[r] != 0 {
			return false
		}
	}
	return c.fenceDirty == 0 && c.msgDirty == 0
}

// maybeAnalyze checks whether every rank has executed the next global
// sync; if so and the boundary is clean, the slab is analyzed and dropped.
func (c *Checker) maybeAnalyze() {
	for {
		ready := true
		for r := 0; r < c.ranks; r++ {
			if len(c.globalPos[r]) == 0 {
				ready = false
				break
			}
		}
		if !ready {
			return
		}
		// All ranks have reached a boundary. The boundary is clean only if
		// the *trailing* state is clean — but ranks may have run ahead past
		// the boundary, so cleanliness must be evaluated against the state
		// at the boundary. Running ahead is possible only for events after
		// the global sync, which by definition happened after every rank
		// entered it; tracking state is cumulative, so we conservatively
		// require current cleanliness. If unclean, coalesce: drop this
		// boundary and retry at the next one.
		if !c.clean() {
			c.mBoundUnclean.Inc()
			c.mCoalesced.Inc()
			for r := 0; r < c.ranks; r++ {
				c.globalPos[r] = c.globalPos[r][1:]
			}
			continue
		}
		c.mBoundClean.Inc()
		if err := c.analyzeSlab(); err != nil {
			c.err = err
			return
		}
	}
}

// analyzeSlab analyzes the events up to and including each rank's next
// boundary as one slab, merges its violations, and discards the events.
func (c *Checker) analyzeSlab() error {
	set := c.cutSlab(func(r int) int { return c.globalPos[r][0] + 1 })
	c.mPeakBuffered.SetMax(int64(c.peakBuffered))
	rep, err := c.analyzeSet(set, fmt.Sprintf("slab %d", c.slabsAnalyzed))
	if err != nil {
		return fmt.Errorf("stream: slab %d: %w", c.slabsAnalyzed, err)
	}
	c.merge(rep)
	return nil
}

// cutSlab builds the next self-contained slab from the first cut(r)
// pending events of each rank, preceded — after the first slab — by the
// definitions of the slabs analyzed before it and a synthetic opening
// fence per live fenced window. The cut events leave the pending queues
// (the boundary event is consumed: its sync effect for the next slab is
// re-created by the synthetic fence and definitions, and ordering across
// the boundary is implied by slab sequencing), and their definitions
// join those re-injected into later slabs.
func (c *Checker) cutSlab(cut func(r int) int) *trace.Set {
	set := trace.NewSet(c.ranks)
	wins := c.liveFencedWins()
	for r := 0; r < c.ranks; r++ {
		tr := set.Traces[r]
		appendEv := func(ev trace.Event) {
			ev.Rank = int32(r)
			ev.Seq = int64(len(tr.Events))
			tr.Events = append(tr.Events, ev)
		}
		if c.slabsAnalyzed > 0 {
			for _, d := range c.defs[r] {
				if d.Kind == trace.KindWinCreate && c.freed[d.Win] {
					continue
				}
				appendEv(d)
			}
			for _, win := range wins {
				if !c.rankInWinComm(r, win) {
					continue
				}
				appendEv(trace.Event{
					Kind: trace.KindWinFence, Win: win, Comm: c.winComm[win],
					File: "<stream-carryover>",
				})
			}
		}
		n := cut(r)
		for _, ev := range c.pending[r][:n] {
			appendEv(ev)
			switch ev.Kind {
			case trace.KindCommCreate, trace.KindTypeCreate, trace.KindWinCreate:
				c.defs[r] = append(c.defs[r], ev)
			}
		}
		c.pending[r] = append([]trace.Event(nil), c.pending[r][n:]...)
		rebased := c.globalPos[r][:0]
		for _, p := range c.globalPos[r] {
			if p >= n {
				rebased = append(rebased, p-n)
			}
		}
		c.globalPos[r] = rebased
	}
	c.slabsAnalyzed++
	c.recountBuffered()
	c.mSlabs.Inc()
	c.mSlabEvents.Observe(int64(set.TotalEvents()))
	return set
}

// analyzeSet runs one slab's trace set through the pipeline. In tolerant
// mode an analysis failure degrades — the longest clean prefix of the
// slab is analyzed and the loss recorded in c.notes — instead of
// erroring.
func (c *Checker) analyzeSet(set *trace.Set, label string) (*core.Report, error) {
	if !c.tolerant {
		return core.AnalyzeWith(set, c.opts)
	}
	rep, err := core.AnalyzeDegraded(set, c.opts, nil)
	if err != nil {
		return nil, err
	}
	for _, n := range rep.Degraded {
		c.notes = append(c.notes, label+": "+n)
	}
	return rep, nil
}

// recountBuffered refreshes the buffered-event tally after a slab trimmed
// the pending queues.
func (c *Checker) recountBuffered() {
	n := 0
	for r := 0; r < c.ranks; r++ {
		n += len(c.pending[r])
	}
	c.buffered = n
}

// liveFencedWins lists windows that have seen a fence and are not freed,
// deterministically ordered.
func (c *Checker) liveFencedWins() []int32 {
	var wins []int32
	for win := range c.fenceSeen {
		if !c.freed[win] {
			wins = append(wins, win)
		}
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i] < wins[j] })
	return wins
}

// rankInWinComm reports whether world rank r belongs to the communicator
// win was created over, so only member ranks inject its synthetic fence.
func (c *Checker) rankInWinComm(r int, win int32) bool {
	comm := c.winComm[win]
	members, ok := c.commMembers[comm]
	if !ok {
		return true // world communicator: every rank is a member
	}
	for _, m := range members {
		if int(m) == r {
			return true
		}
	}
	return false
}

// merge folds a slab report into the cumulative one, deduplicating across
// slabs and firing the callback for new violations.
func (c *Checker) merge(rep *core.Report) {
	for _, v := range c.report.Merge(rep) {
		if c.onViolation != nil {
			c.onViolation(v)
		}
	}
}

// Finish analyzes the remaining tail and returns the cumulative report.
// It is idempotent: repeat calls return the first call's report and error
// unchanged, so racing shutdown paths (drain, watchdog, signal handler)
// can all safely finalize the same checker.
func (c *Checker) Finish() (*core.Report, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return c.finalRep, c.finalErr
	}
	rep, err := c.finishLocked()
	c.finished = true
	c.finalRep, c.finalErr = rep, err
	return rep, err
}

// Err reports sticky failure and misuse state: the first slab-analysis
// error, or ErrEmitAfterFinish when events arrived after finalization.
// A nil result means every event was accepted and analyzed (or is still
// pending analysis).
func (c *Checker) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if c.misuse != nil {
		return fmt.Errorf("%w (%d dropped)", c.misuse, c.lateEmits)
	}
	return nil
}

// finishLocked is the single-shot body of Finish, running under c.mu.
func (c *Checker) finishLocked() (*core.Report, error) {
	if c.err != nil {
		return nil, c.err
	}
	// Analyze whatever remains as one final slab (boundary = end of trace).
	remaining := 0
	for r := 0; r < c.ranks; r++ {
		remaining += len(c.pending[r])
	}
	if remaining > 0 {
		set := c.cutSlab(func(r int) int { return len(c.pending[r]) })
		rep, err := c.analyzeSet(set, "final slab")
		if err != nil {
			return nil, fmt.Errorf("stream: final slab: %w", err)
		}
		c.merge(rep)
	}
	c.mPeakBuffered.SetMax(int64(c.peakBuffered))
	c.report.Sort()
	c.report.Degraded = append(c.report.Degraded, c.notes...)
	return c.report, nil
}

// Slabs returns the number of slabs analyzed so far (diagnostic).
func (c *Checker) Slabs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slabsAnalyzed
}
