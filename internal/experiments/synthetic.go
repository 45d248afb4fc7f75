package experiments

import (
	"math/rand"

	"repro/internal/testutil"
	"repro/internal/trace"
)

// SyntheticRegion builds a single-concurrent-region trace with `ops`
// one-sided operations spread over `ranks` ranks, each rank putting to its
// own disjoint displacement range of the next rank's window under lock
// epochs. The workload is race-free, so detection cost is pure analysis
// cost; operations spread across (window, target) pairs, which is the case
// that separates the linear detector (per-target vectors) from the
// quadratic all-pairs baseline.
//
// The final operation is made conflicting (two ranks put to the same
// bytes) so that both detectors must do real work and their agreement is
// checkable.
func SyntheticRegion(ranks, ops int) *trace.Set {
	if ranks < 2 {
		ranks = 2
	}
	b := testutil.NewTraceBuilder(ranks)
	winSize := uint64(ops*8 + 64)
	b.WinCreate(1, 0x10000, winSize)

	perRank := ops / ranks
	if perRank < 1 {
		perRank = 1
	}
	line := int32(1)
	for r := int32(0); r < int32(ranks); r++ {
		target := (r + 1) % int32(ranks)
		b.Add(r, trace.Event{Kind: trace.KindWinLock, Win: 1, Target: target,
			Lock: trace.LockShared, File: "synth.go", Line: line})
		line++
		for k := 0; k < perRank; k++ {
			// Disjoint displacement per (origin, k): origins write only to
			// their own stripe of the target window.
			disp := uint64(r)*uint64(perRank)*8 + uint64(k)*8
			b.Add(r, trace.Event{
				Kind: trace.KindPut, Win: 1, Target: target,
				OriginAddr: 0x500 + uint64(k)*8, OriginType: trace.TypeFloat64, OriginCount: 1,
				TargetDisp: disp, TargetType: trace.TypeFloat64, TargetCount: 1,
				File: "synth.go", Line: line,
			})
			line++
		}
		b.Add(r, trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: target,
			File: "synth.go", Line: line})
		line++
	}
	// One deliberate conflict: ranks 0 and 1 both put byte 0 of rank 2..
	conflictTarget := int32(2 % ranks)
	for _, r := range []int32{0, 1} {
		b.Add(r, trace.Event{Kind: trace.KindWinLock, Win: 1, Target: conflictTarget,
			Lock: trace.LockShared, File: "synth.go", Line: line})
		b.Add(r, trace.Event{
			Kind: trace.KindPut, Win: 1, Target: conflictTarget,
			OriginAddr: 0x400, OriginType: trace.TypeFloat64, OriginCount: 1,
			TargetDisp: winSize - 8, TargetType: trace.TypeFloat64, TargetCount: 1,
			File: "synth.go", Line: line + 1,
		})
		b.Add(r, trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: conflictTarget,
			File: "synth.go", Line: line + 2})
		line += 3
	}
	return b.Set()
}

// ShadowSyntheticRegion builds the worst case for a pairwise vector scan:
// every rank except rank 0 puts to rank 0's window, so all operations land
// in ONE (window, target) vector and the per-vector rescan degenerates to
// O(ops^2) comparisons. Each origin writes its own disjoint stripe under a
// shared-lock epoch, so the operations are mutually concurrent but the
// shadow store's interval cells stay disjoint and each query touches only
// its own stripe. A handful of planted overlaps at the tail of the window
// make the detector report, so its agreement with the pairwise test oracle
// is checkable on the same workload that is benchmarked.
func ShadowSyntheticRegion(ranks, ops int) *trace.Set {
	if ranks < 3 {
		ranks = 3
	}
	origins := ranks - 1
	perRank := ops / origins
	if perRank < 1 {
		perRank = 1
	}
	b := testutil.NewTraceBuilder(ranks)
	winSize := uint64(origins*perRank*8 + 64)
	b.WinCreate(1, 0x10000, winSize)

	line := int32(1)
	for r := int32(1); r < int32(ranks); r++ {
		b.Add(r, trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 0,
			Lock: trace.LockShared, File: "synth.go", Line: line})
		line++
		for k := 0; k < perRank; k++ {
			disp := uint64(r-1)*uint64(perRank)*8 + uint64(k)*8
			b.Add(r, trace.Event{
				Kind: trace.KindPut, Win: 1, Target: 0,
				OriginAddr: 0x500 + uint64(k)*8, OriginType: trace.TypeFloat64, OriginCount: 1,
				TargetDisp: disp, TargetType: trace.TypeFloat64, TargetCount: 1,
				File: "synth.go", Line: line,
			})
			line++
		}
		b.Add(r, trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 0,
			File: "synth.go", Line: line})
		line++
	}
	// Planted conflicts: ranks 1 and 2 both put the last word of the window.
	for _, r := range []int32{1, 2} {
		b.Add(r, trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 0,
			Lock: trace.LockShared, File: "synth.go", Line: line})
		b.Add(r, trace.Event{
			Kind: trace.KindPut, Win: 1, Target: 0,
			OriginAddr: 0x400, OriginType: trace.TypeFloat64, OriginCount: 1,
			TargetDisp: winSize - 8, TargetType: trace.TypeFloat64, TargetCount: 1,
			File: "synth.go", Line: line + 1,
		})
		b.Add(r, trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 0,
			File: "synth.go", Line: line + 2})
		line += 3
	}
	return b.Set()
}

// PermutedShadowRegion is ShadowSyntheticRegion with the puts inside
// every epoch shuffled by a generator seeded by seed, the input of the
// perfbench hot-region workload. Every rank's stripe then reaches the
// store out of address order. The planted conflict, two puts in epochs
// of their own, survives any permutation.
func PermutedShadowRegion(ranks, ops int, seed int64) *trace.Set {
	set := ShadowSyntheticRegion(ranks, ops)
	rng := rand.New(rand.NewSource(seed))
	for _, t := range set.Traces {
		evs := t.Events
		for lo := 0; lo < len(evs); lo++ {
			if evs[lo].Kind != trace.KindPut {
				continue
			}
			hi := lo
			for hi < len(evs) && evs[hi].Kind == trace.KindPut {
				hi++
			}
			run := evs[lo:hi]
			rng.Shuffle(len(run), func(i, j int) { run[i], run[j] = run[j], run[i] })
			lo = hi - 1
		}
		for i := range evs {
			evs[i].Seq = int64(i)
		}
	}
	return set
}
