package core_test

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/memory"
	"repro/internal/mpi"
	"repro/internal/profiler"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// checkIntraOracle asserts that the indexed within-epoch detector and the
// all-pairs oracle give byte-identical text and JSON reports for set —
// the same violations, dedup representatives, counts and witnesses — at
// one worker and at GOMAXPROCS. An input both reject must fail with the
// same error.
func checkIntraOracle(t testing.TB, set *trace.Set) {
	t.Helper()
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		opts := core.DefaultOptions()
		opts.Workers = w
		got, gotErr := core.AnalyzeWith(set, opts)
		want, wantErr := core.AnalyzeWithIntraOracle(set, opts)
		if gotErr != nil || wantErr != nil {
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("workers=%d: indexed error %v, oracle error %v", w, gotErr, wantErr)
			}
			continue
		}
		if g, o := got.String(), want.String(); g != o {
			t.Errorf("workers=%d: report diverged from the oracle\n--- oracle ---\n%s\n--- indexed ---\n%s", w, o, g)
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

func simulate(t testing.TB, ranks int, rel profiler.Relevance, body func(p *mpi.Proc) error) *trace.Set {
	t.Helper()
	sink := trace.NewMemorySink()
	if err := mpi.Run(ranks, mpi.Options{Hook: profiler.New(sink, rel)}, body); err != nil {
		t.Fatal(err)
	}
	return sink.Set()
}

// genProgram builds one injected generator program for a pattern, trying
// a few seeds because not every seed offers sites for every pattern.
func genProgram(pattern string, seed uint64) (*gen.Program, error) {
	var lastErr error
	for attempt := 0; attempt < 16; attempt++ {
		s := seed + uint64(attempt)*31
		pr, err := gen.Inject(gen.Generate(s, gen.Options{Ranks: 2 + int(s%3)}), pattern, s^0x9e3779b9)
		if err == nil {
			return pr, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// renumber restores dense per-rank sequence numbers after events were
// moved or inserted.
func renumber(t *trace.Trace) {
	for i := range t.Events {
		t.Events[i].Seq = int64(i)
	}
}

// permutedRegion is experiments.ShadowSyntheticRegion with the puts of
// every epoch shuffled, as the benchmark's hot region is.
func permutedRegion(ranks, ops int, seed uint64) *trace.Set {
	set := experiments.ShadowSyntheticRegion(ranks, ops)
	rng := rand.New(rand.NewPCG(seed, 0))
	for _, t := range set.Traces {
		evs := t.Events
		for lo := 0; lo < len(evs); lo++ {
			hi := lo
			for hi < len(evs) && evs[hi].Kind == trace.KindPut {
				hi++
			}
			run := evs[lo:hi]
			rng.Shuffle(len(run), func(i, j int) { run[i], run[j] = run[j], run[i] })
			lo = hi
		}
		renumber(t)
	}
	return set
}

// withFlushes returns a copy of set with a Win_flush or Win_flush_local —
// to the operation's target or to all targets — inserted after about half
// of the RMA operations, chosen by seed. Flushes synchronize nothing
// across processes, so only the within-epoch detector sees them.
func withFlushes(set *trace.Set, seed uint64) *trace.Set {
	rng := rand.New(rand.NewPCG(seed, 1))
	out := trace.NewSet(set.Ranks())
	for r, t := range set.Traces {
		evs := make([]trace.Event, 0, len(t.Events))
		for _, ev := range t.Events {
			evs = append(evs, ev)
			if !ev.Kind.IsRMAComm() || rng.IntN(2) == 0 {
				continue
			}
			fl := trace.Event{Kind: trace.KindWinFlush, Rank: ev.Rank, Win: ev.Win, Target: ev.Target,
				File: "flush.go", Line: int32(rng.IntN(4))}
			if rng.IntN(2) == 0 {
				fl.Kind = trace.KindWinFlushLocal
			}
			if rng.IntN(3) == 0 {
				fl.Target = -1
			}
			evs = append(evs, fl)
		}
		out.Traces[r].Events = evs
		renumber(out.Traces[r])
	}
	return out
}

// denseEpochs builds a random trace in which rank 0 issues every RMA kind,
// loads, stores, sends, receives and flushes over a few dozen bytes, so
// most operations overlap. Counts of zero give empty footprints, a
// strided user datatype gives multi-interval ones, and lock_all epochs
// spread operations over all three targets. Lines repeat, so violations
// deduplicate.
func denseEpochs(seed uint64) *trace.Set {
	rng := rand.New(rand.NewPCG(seed, 2))
	b := testutil.NewTraceBuilder(3)
	b.WinCreate(1, 0x1000, 128)
	var strided memory.DataMap
	for k := uint64(0); k < 3; k++ {
		strided.Segments = append(strided.Segments, memory.Segment{Disp: k * 12, Len: 4})
	}
	strided.Extent = 36
	b.Add(0, trace.Event{Kind: trace.KindTypeCreate, TypeID: trace.TypeUserBase, TypeMap: strided})
	// Rank 1 sends first and receives last, so rank 0's receives and
	// sends match whatever epochs they land in.
	var sends, recvs int
	sendTo1 := func(line int32) trace.Event {
		sends++
		return trace.Event{Kind: trace.KindSend, Comm: 0, Peer: 1, Tag: 7, OriginAddr: 0x500 + 4*uint64(rng.IntN(8)),
			OriginType: trace.TypeInt32, OriginCount: int32(rng.IntN(3)), File: "dense.go", Line: line}
	}
	recvFrom1 := func(line int32) trace.Event {
		recvs++
		return trace.Event{Kind: trace.KindRecv, Comm: 0, Peer: 1, Tag: 8, OriginAddr: 0x500 + 4*uint64(rng.IntN(8)),
			OriginType: trace.TypeInt32, OriginCount: int32(rng.IntN(3)), File: "dense.go", Line: line}
	}
	typ := func() int32 {
		if rng.IntN(4) == 0 {
			return trace.TypeUserBase
		}
		return trace.TypeInt32
	}
	rma := func(target int32, line int32) trace.Event {
		kinds := []trace.Kind{trace.KindPut, trace.KindGet, trace.KindAccumulate,
			trace.KindGetAccumulate, trace.KindFetchOp, trace.KindCompareSwap}
		ev := trace.Event{Kind: kinds[rng.IntN(len(kinds))], Win: 1, Target: target,
			AccOp:      []trace.AccOp{trace.OpSum, trace.OpProd}[rng.IntN(2)],
			OriginAddr: 0x500 + 4*uint64(rng.IntN(8)), OriginType: typ(), OriginCount: int32(rng.IntN(3)),
			TargetDisp: 4 * uint64(rng.IntN(8)), TargetType: typ(), TargetCount: int32(rng.IntN(3)),
			File: "dense.go", Line: line}
		switch ev.Kind {
		case trace.KindGetAccumulate, trace.KindFetchOp, trace.KindCompareSwap:
			ev.ResultAddr, ev.ResultType, ev.ResultCount = 0x500+4*uint64(rng.IntN(8)), trace.TypeInt32, 1+int32(rng.IntN(2))
		}
		return ev
	}
	for epoch := 0; epoch < 6; epoch++ {
		lockAll := epoch%2 == 0
		if lockAll {
			b.Add(0, trace.Event{Kind: trace.KindWinLockAll, Win: 1, File: "dense.go", Line: 1})
		} else {
			b.Fence(1)
		}
		for k := 0; k < 40; k++ {
			line := int32(10 + rng.IntN(12))
			target := int32(1)
			if lockAll {
				target = int32(rng.IntN(3))
			}
			switch x := rng.IntN(10); {
			case x < 5:
				b.Add(0, rma(target, line))
			case x < 7:
				kind := trace.KindLoad
				if rng.IntN(2) == 0 {
					kind = trace.KindStore
				}
				b.Add(0, trace.Event{Kind: kind, Addr: 0x500 + uint64(rng.IntN(32)), Size: uint64(rng.IntN(9)),
					File: "dense.go", Line: line})
			case x == 7:
				b.Add(0, sendTo1(line))
			case x == 8:
				b.Add(0, recvFrom1(line))
			default:
				kind := trace.KindWinFlush
				if rng.IntN(2) == 0 {
					kind = trace.KindWinFlushLocal
				}
				if rng.IntN(3) == 0 {
					target = -1
				}
				b.Add(0, trace.Event{Kind: kind, Win: 1, Target: target, File: "dense.go", Line: line})
			}
		}
		if lockAll {
			b.Add(0, trace.Event{Kind: trace.KindWinUnlockAll, Win: 1, File: "dense.go", Line: 2})
		}
	}
	b.Fence(1)
	t1 := b.Set().Traces[1]
	pre := make([]trace.Event, 0, recvs+len(t1.Events)+sends)
	for i := 0; i < recvs; i++ {
		pre = append(pre, trace.Event{Kind: trace.KindSend, Rank: 1, Comm: 0, Peer: 0, Tag: 8,
			OriginAddr: 0x900, OriginType: trace.TypeInt32, OriginCount: 1, File: "dense.go", Line: 3})
	}
	pre = append(pre, t1.Events...)
	for i := 0; i < sends; i++ {
		pre = append(pre, trace.Event{Kind: trace.KindRecv, Rank: 1, Comm: 0, Peer: 0, Tag: 7,
			OriginAddr: 0x900, OriginType: trace.TypeInt32, OriginCount: 1, File: "dense.go", Line: 4})
	}
	t1.Events = pre
	renumber(t1)
	return b.Set()
}

// handBuilt returns the hand-written epochs of the sweep, each aimed at
// one part of the index: flushes, multi-interval footprints, result
// buffers, empty footprints and several targets in one lock_all epoch.
func handBuilt() map[string]*trace.Set {
	ev := func(kind trace.Kind, target int32, origin, disp uint64, line int32) trace.Event {
		return trace.Event{Kind: kind, Win: 1, Target: target, AccOp: trace.OpSum,
			OriginAddr: origin, OriginType: trace.TypeInt32, OriginCount: 1,
			TargetDisp: disp, TargetType: trace.TypeInt32, TargetCount: 1, File: "hand.go", Line: line}
	}
	access := func(kind trace.Kind, addr uint64, line int32) trace.Event {
		return trace.Event{Kind: kind, Addr: addr, Size: 4, File: "hand.go", Line: line}
	}
	flush := func(kind trace.Kind, target int32, line int32) trace.Event {
		return trace.Event{Kind: kind, Win: 1, Target: target, File: "hand.go", Line: line}
	}
	fetching := func(kind trace.Kind, target int32, origin, result, disp uint64, line int32) trace.Event {
		e := ev(kind, target, origin, disp, line)
		e.ResultAddr, e.ResultType, e.ResultCount = result, trace.TypeInt32, 1
		return e
	}
	lockAll := func(b *testutil.TraceBuilder, evs ...trace.Event) {
		b.Add(0, trace.Event{Kind: trace.KindWinLockAll, Win: 1, File: "hand.go", Line: 1})
		for _, e := range evs {
			b.Add(0, e)
		}
		b.Add(0, trace.Event{Kind: trace.KindWinUnlockAll, Win: 1, File: "hand.go", Line: 2})
	}
	sets := map[string]*trace.Set{}

	b := testutil.NewTraceBuilder(3)
	b.WinCreate(1, 0x1000, 64)
	for rep := 0; rep < 2; rep++ {
		lockAll(b,
			ev(trace.KindGet, 1, 0x500, 0, 10),
			ev(trace.KindPut, 2, 0x500, 0, 11), // origin written by the pending Get
			flush(trace.KindWinFlush, 1, 12),   // completes the Get
			access(trace.KindLoad, 0x500, 13),
			access(trace.KindStore, 0x500, 14), // Put origin still pending
			flush(trace.KindWinFlushLocal, 2, 15),
			access(trace.KindStore, 0x500, 16),
			ev(trace.KindPut, 2, 0x600, 0, 17), // target of the Put at 11 still pending
			flush(trace.KindWinFlush, -1, 18),
			ev(trace.KindPut, 2, 0x600, 0, 19),
			ev(trace.KindGet, 1, 0x700, 0, 20),
			flush(trace.KindWinFlushLocal, -1, 21),
			access(trace.KindLoad, 0x700, 22),
			ev(trace.KindPut, 1, 0x800, 0, 23), // Get target still pending
		)
	}
	sets["flushes"] = b.Set()

	b = testutil.NewTraceBuilder(3)
	b.WinCreate(1, 0x1000, 128)
	var strided memory.DataMap
	for k := uint64(0); k < 4; k++ {
		strided.Segments = append(strided.Segments, memory.Segment{Disp: k * 16, Len: 8})
	}
	strided.Extent = 64
	b.Add(0, trace.Event{Kind: trace.KindTypeCreate, TypeID: trace.TypeUserBase, TypeMap: strided})
	vec := func(kind trace.Kind, origin, disp uint64, line int32) trace.Event {
		e := ev(kind, 1, origin, disp, line)
		e.OriginType, e.TargetType = trace.TypeUserBase, trace.TypeUserBase
		return e
	}
	b.Fence(1)
	b.Add(0, vec(trace.KindGet, 0x500, 0, 30))
	b.Add(0, access(trace.KindStore, 0x508, 31)) // gap of the strided origin
	b.Add(0, access(trace.KindStore, 0x514, 32)) // second block
	b.Add(0, vec(trace.KindPut, 0x608, 8, 33))   // interleaves with the Get's target
	b.Add(0, vec(trace.KindPut, 0x700, 16, 34))  // overlaps both targets
	b.Add(0, vec(trace.KindAccumulate, 0x538, 40, 35))
	b.Fence(1)
	sets["derived-datatypes"] = b.Set()

	b = testutil.NewTraceBuilder(3)
	b.WinCreate(1, 0x1000, 64)
	lockAll(b,
		fetching(trace.KindGetAccumulate, 1, 0x500, 0x540, 0, 40),
		fetching(trace.KindFetchOp, 1, 0x580, 0x540, 0, 41),     // same result buffer, same op
		fetching(trace.KindCompareSwap, 2, 0x5c0, 0x500, 0, 42), // result over the GetAcc origin
		access(trace.KindLoad, 0x540, 43),
		ev(trace.KindPut, 1, 0x540, 8, 44),
		ev(trace.KindGet, 2, 0x5c0, 8, 45),
		flush(trace.KindWinFlushLocal, 1, 46),
		access(trace.KindStore, 0x540, 47),
	)
	sets["result-buffers"] = b.Set()

	b = testutil.NewTraceBuilder(3)
	b.WinCreate(1, 0x1000, 64)
	b.Fence(1)
	empty := ev(trace.KindPut, 1, 0x500, 0, 50)
	empty.OriginCount, empty.TargetCount = 0, 0
	b.Add(0, empty)
	b.Add(0, trace.Event{Kind: trace.KindStore, Addr: 0x500, Size: 0, File: "hand.go", Line: 51})
	noTarget := ev(trace.KindGet, 1, 0x500, 0, 52)
	noTarget.TargetCount = 0
	b.Add(0, noTarget)
	b.Add(0, ev(trace.KindPut, 1, 0x600, 0, 53))
	b.Add(0, access(trace.KindLoad, 0x500, 54))
	b.Add(0, empty)
	b.Fence(1)
	sets["empty-footprints"] = b.Set()

	b = testutil.NewTraceBuilder(3)
	b.WinCreate(1, 0x1000, 64)
	lockAll(b,
		ev(trace.KindPut, 0, 0x500, 0, 60),
		ev(trace.KindPut, 1, 0x504, 0, 61),
		ev(trace.KindPut, 2, 0x508, 0, 62),
		ev(trace.KindPut, 1, 0x50c, 0, 63), // same target and bytes as line 61
		ev(trace.KindAccumulate, 2, 0x510, 8, 64),
		ev(trace.KindAccumulate, 2, 0x514, 8, 65),
		flush(trace.KindWinFlush, 1, 66),
		ev(trace.KindPut, 1, 0x518, 0, 67),
		ev(trace.KindGet, 0, 0x51c, 0, 68),
	)
	sets["lock-all-targets"] = b.Set()
	return sets
}

// TestIntraEpochOracleSweep is the within-epoch detector's contract: over
// every registry case (buggy and fixed), one generated program per
// injection pattern, the permuted synthetic hot region, the hand-built
// epochs and random dense epochs, the indexed detector must render the
// oracle's reports byte for byte.
func TestIntraEpochOracleSweep(t *testing.T) {
	for _, bc := range apps.AllCases() {
		bc := bc
		ranks := min(bc.Ranks, 8)
		var rel profiler.Relevance
		if bc.RelevantBuffers != nil {
			rel = profiler.FromNames(bc.RelevantBuffers)
		}
		for variant, body := range map[string]func(p *mpi.Proc) error{"buggy": bc.Buggy, "fixed": bc.Fixed} {
			if body == nil {
				continue
			}
			body := body
			t.Run("app/"+bc.Name+"/"+variant, func(t *testing.T) {
				checkIntraOracle(t, simulate(t, ranks, rel, body))
			})
		}
	}
	for pi, p := range gen.Patterns() {
		pr, err := genProgram(p.Name, uint64(400+17*pi))
		if err != nil {
			t.Fatalf("gen/%s: %v", p.Name, err)
		}
		t.Run("gen/"+p.Name, func(t *testing.T) {
			checkIntraOracle(t, simulate(t, pr.Ranks, nil, pr.Body()))
		})
	}
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("hot-region/seed%d", seed), func(t *testing.T) {
			checkIntraOracle(t, permutedRegion(8, 1024, seed))
		})
	}
	for name, set := range handBuilt() {
		set := set
		t.Run("hand/"+name, func(t *testing.T) { checkIntraOracle(t, set) })
	}
	for seed := uint64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("dense/seed%d", seed), func(t *testing.T) {
			checkIntraOracle(t, denseEpochs(seed))
		})
	}
}

// FuzzIntraEpochDifferential checks the indexed detector against the
// oracle on seeded generator programs with flushes inserted after their
// operations, and on random dense epochs from the same seed: any report
// that differs is a crasher.
func FuzzIntraEpochDifferential(f *testing.F) {
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
			pr = base // not every seed offers sites for every pattern
		}
		sink := trace.NewMemorySink()
		if err := mpi.Run(pr.Ranks, mpi.Options{Hook: profiler.New(sink, nil)}, pr.Body()); err != nil {
			t.Skip(fmt.Sprintf("simulate: %v", err))
		}
		checkIntraOracle(t, withFlushes(sink.Set(), seed))
		checkIntraOracle(t, denseEpochs(seed))
	})
}
