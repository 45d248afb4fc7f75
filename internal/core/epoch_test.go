package core

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/profiler"
	"repro/internal/testutil"
	"repro/internal/trace"
)

func extract(t *testing.T, b *testutil.TraceBuilder) ([]*Epoch, OpEpochs) {
	t.Helper()
	m, err := model.Build(b.Set())
	if err != nil {
		t.Fatal(err)
	}
	epochs, opEpoch, err := ExtractEpochs(m)
	if err != nil {
		t.Fatal(err)
	}
	return epochs, opEpoch
}

func put(win, target int32) trace.Event {
	return trace.Event{Kind: trace.KindPut, Win: win, Target: target,
		OriginAddr: 0x100, OriginType: trace.TypeInt32, OriginCount: 1,
		TargetDisp: 0, TargetType: trace.TypeInt32, TargetCount: 1}
}

func TestFenceEpochs(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Fence(1)
	p1 := b.Add(0, put(1, 1))
	b.Fence(1)
	p2 := b.Add(0, put(1, 1))
	b.Fence(1)
	epochs, opEpoch := extract(t, b)

	// Rank 0 has 3 fence epochs (the last closed at trace end), ranks 1 has 3 empty ones.
	var rank0 []*Epoch
	for _, e := range epochs {
		if e.Rank == 0 && e.Kind == EpochFence {
			rank0 = append(rank0, e)
		}
	}
	if len(rank0) != 3 {
		t.Fatalf("rank 0 fence epochs = %d", len(rank0))
	}
	if opEpoch.Of(p1) == opEpoch.Of(p2) {
		t.Error("puts in different fence epochs share an epoch")
	}
	if len(opEpoch.Of(p1).Ops) != 1 || opEpoch.Of(p1).Ops[0] != p1 {
		t.Errorf("epoch ops = %v", opEpoch.Of(p1).Ops)
	}
}

func TestLockEpochs(t *testing.T) {
	b := testutil.NewTraceBuilder(3)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared})
	pa := b.Add(0, put(1, 1))
	// Nested lock to a different target is legal.
	b.Add(0, trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 2, Lock: trace.LockExclusive})
	pb := b.Add(0, put(1, 2))
	b.Add(0, trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 2})
	b.Add(0, trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 1})
	epochs, opEpoch := extract(t, b)

	ea, eb := opEpoch.Of(pa), opEpoch.Of(pb)
	if ea == nil || eb == nil || ea == eb {
		t.Fatalf("lock epochs not separated: %v %v", ea, eb)
	}
	if ea.Kind != EpochLockShared || ea.Target != 1 {
		t.Errorf("epoch a = %v", ea)
	}
	if eb.Kind != EpochLockExclusive || eb.Target != 2 {
		t.Errorf("epoch b = %v", eb)
	}
	count := 0
	for _, e := range epochs {
		if e.Rank == 0 && (e.Kind == EpochLockShared || e.Kind == EpochLockExclusive) {
			count++
		}
	}
	if count != 2 {
		t.Errorf("lock epochs = %d", count)
	}
}

func TestPSCWEpochs(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, trace.Event{Kind: trace.KindWinPost, Win: 1, Members: []int32{1}})
	b.Add(1, trace.Event{Kind: trace.KindWinStart, Win: 1, Members: []int32{0}})
	p := b.Add(1, put(1, 0))
	b.Add(1, trace.Event{Kind: trace.KindWinComplete, Win: 1})
	b.Add(0, trace.Event{Kind: trace.KindWinWait, Win: 1})
	_, opEpoch := extract(t, b)
	e := opEpoch.Of(p)
	if e == nil || e.Kind != EpochPSCW || e.Rank != 1 {
		t.Fatalf("pscw epoch = %v", e)
	}
}

func TestEpochErrors(t *testing.T) {
	// RMA op with no epoch at all.
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, put(1, 1))
	m, err := model.Build(b.Set())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ExtractEpochs(m); err == nil {
		t.Error("op outside epoch must error")
	}

	// Unlock without lock.
	b = testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 1})
	m, _ = model.Build(b.Set())
	if _, _, err := ExtractEpochs(m); err == nil {
		t.Error("unlock without lock must error")
	}

	// Double lock of the same target.
	b = testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared})
	b.Add(0, trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared})
	m, _ = model.Build(b.Set())
	if _, _, err := ExtractEpochs(m); err == nil {
		t.Error("double lock must error")
	}
}

func TestTruncatedEpochClosedAtTraceEnd(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared})
	p := b.Add(0, put(1, 1))
	// No unlock: trace truncated (e.g. crashed run).
	_, opEpoch := extract(t, b)
	e := opEpoch.Of(p)
	if e == nil {
		t.Fatal("truncated epoch lost its op")
	}
	if e.End != 3 { // trace length of rank 0
		t.Errorf("truncated epoch end = %d", e.End)
	}
}

// TestTruncatedEpochOrderStable: epochs left open by the end of the trace
// close in (Start, Win, Target) order, the same on every extraction.
func TestTruncatedEpochOrderStable(t *testing.T) {
	b := testutil.NewTraceBuilder(4)
	b.WinCreate(1, 0x1000, 64)
	b.WinCreate(2, 0x2000, 64)
	b.Fence(2)
	for _, target := range []int32{3, 1, 2} {
		b.Add(0, trace.Event{Kind: trace.KindWinLock, Win: 1, Target: target, Lock: trace.LockShared})
		b.Add(0, put(1, target))
	}
	b.Add(0, trace.Event{Kind: trace.KindWinLockAll, Win: 1})
	// No unlocks: the trace ends with three lock epochs, the lock_all
	// epoch and window 2's last fence epoch open on rank 0.
	var first string
	for i := 0; i < 50; i++ {
		epochs, _ := extract(t, b)
		var open []*Epoch
		for _, e := range epochs {
			if e.Rank == 0 && e.End == int64(len(b.Set().Traces[0].Events)) {
				open = append(open, e)
			}
		}
		if len(open) != 5 {
			t.Fatalf("rank 0 has %d epochs closed at the trace end, want 5", len(open))
		}
		for j := 1; j < len(open); j++ {
			if open[j-1].Start >= open[j].Start {
				t.Fatalf("truncated epochs not in start order: %v then %v", open[j-1], open[j])
			}
		}
		order := fmt.Sprint(open)
		if i == 0 {
			first = order
		} else if order != first {
			t.Fatalf("extraction %d closed truncated epochs in order\n%s\nwant\n%s", i, order, first)
		}
	}
}

// TestOpEpochsMatchesMap: over every registry case, OpEpochs.Of agrees
// with the op→epoch map built from the epochs' own op lists for every
// event, and non-RMA events map to nil.
func TestOpEpochsMatchesMap(t *testing.T) {
	for _, bc := range apps.AllCases() {
		var rel profiler.Relevance
		if bc.RelevantBuffers != nil {
			rel = profiler.FromNames(bc.RelevantBuffers)
		}
		for variant, body := range map[string]func(p *mpi.Proc) error{"buggy": bc.Buggy, "fixed": bc.Fixed} {
			if body == nil {
				continue
			}
			sink := trace.NewMemorySink()
			if err := mpi.Run(min(bc.Ranks, 8), mpi.Options{Hook: profiler.New(sink, rel)}, body); err != nil {
				t.Fatal(err)
			}
			set := sink.Set()
			m, err := model.Build(set)
			if err != nil {
				t.Fatal(err)
			}
			epochs, ops, err := ExtractEpochs(m)
			if err != nil {
				t.Fatalf("%s/%s: %v", bc.Name, variant, err)
			}
			want := map[trace.ID]*Epoch{}
			for _, e := range epochs {
				for _, id := range e.Ops {
					want[id] = e
				}
			}
			mapped := 0
			for _, r := range ops.ranks {
				mapped += len(r.seqs)
			}
			if mapped != len(want) {
				t.Errorf("%s/%s: OpEpochs maps %d ops, epochs hold %d", bc.Name, variant, mapped, len(want))
			}
			for _, tr := range set.Traces {
				for i := range tr.Events {
					id := tr.Events[i].ID()
					if got := ops.Of(id); got != want[id] {
						t.Fatalf("%s/%s: Of(%v) = %v, want %v", bc.Name, variant, id, got, want[id])
					}
				}
			}
			for _, id := range []trace.ID{{Rank: -1}, {Rank: int32(set.Ranks())}, {Rank: 0, Seq: -1}} {
				if e := ops.Of(id); e != nil {
					t.Errorf("%s/%s: Of(%v) = %v outside the trace", bc.Name, variant, id, e)
				}
			}
		}
	}
}
