package model

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/memory"
	"repro/internal/testutil"
	"repro/internal/trace"
)

func TestBuildRegistries(t *testing.T) {
	b := testutil.NewTraceBuilder(3)
	// Rank 0 creates a derived type; all ranks create window 1; ranks 1,2
	// form a sub-communicator 5.
	b.Add(0, trace.Event{Kind: trace.KindTypeCreate, Def: &trace.Def{TypeID: trace.TypeUserBase,
		TypeMap: memory.DataMap{Segments: []memory.Segment{{Disp: 0, Len: 4}, {Disp: 12, Len: 4}}, Extent: 16}}})
	b.WinCreate(1, 0x1000, 64)
	b.Add(1, trace.Event{Kind: trace.KindCommCreate, Comm: 5, Def: &trace.Def{Members: []int32{1, 2}}})
	b.Add(2, trace.Event{Kind: trace.KindCommCreate, Comm: 5, Def: &trace.Def{Members: []int32{1, 2}}})

	m, err := Build(b.Set())
	if err != nil {
		t.Fatal(err)
	}

	// Implicit world communicator.
	world, err := m.Comm(0)
	if err != nil || world.Size() != 3 {
		t.Fatalf("world comm: %v %v", world, err)
	}
	w2, err := world.World(2)
	if err != nil || w2 != 2 {
		t.Errorf("world translate: %d %v", w2, err)
	}

	// User communicator: relative rank 1 is world rank 2.
	sub, err := m.Comm(5)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := sub.World(1); got != 2 {
		t.Errorf("sub comm translate = %d", got)
	}
	if _, err := sub.World(9); err == nil {
		t.Error("out-of-range rel rank must error")
	}

	// Window registry.
	wi, err := m.Win(1)
	if err != nil {
		t.Fatal(err)
	}
	if wi.Comm != 0 || len(wi.Locals) != 3 {
		t.Errorf("win info = %+v", wi)
	}
	if wi.Locals[1].Size != 64 || wi.Locals[1].DispUnit != 1 {
		t.Errorf("win local = %+v", wi.Locals[1])
	}

	// Datatype registry: predefined and user.
	dm, err := m.Type(0, trace.TypeFloat64)
	if err != nil || dm.Size() != 8 {
		t.Errorf("predefined type: %v %v", dm, err)
	}
	dm, err = m.Type(0, trace.TypeUserBase)
	if err != nil || dm.Size() != 8 || len(dm.Segments) != 2 {
		t.Errorf("user type: %v %v", dm, err)
	}
	// User type ids are per defining rank.
	if _, err := m.Type(1, trace.TypeUserBase); err == nil {
		t.Error("rank 1 must not see rank 0's user type")
	}
	if _, err := m.Comm(99); err == nil {
		t.Error("unknown comm must error")
	}
	if _, err := m.Win(99); err == nil {
		t.Error("unknown window must error")
	}
}

func TestBuildRejectsConflicts(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.Add(0, trace.Event{Kind: trace.KindCommCreate, Comm: 5, Def: &trace.Def{Members: []int32{0, 1}}})
	b.Add(1, trace.Event{Kind: trace.KindCommCreate, Comm: 5, Def: &trace.Def{Members: []int32{1, 0}}})
	if _, err := Build(b.Set()); err == nil {
		t.Error("conflicting comm membership must error")
	}

	b = testutil.NewTraceBuilder(1)
	b.Add(0, trace.Event{Kind: trace.KindTypeCreate, Def: &trace.Def{TypeID: trace.TypeUserBase, TypeMap: memory.Contig(4)}})
	b.Add(0, trace.Event{Kind: trace.KindTypeCreate, Def: &trace.Def{TypeID: trace.TypeUserBase, TypeMap: memory.Contig(8)}})
	if _, err := Build(b.Set()); err == nil {
		t.Error("datatype redefinition must error")
	}

	b = testutil.NewTraceBuilder(1)
	b.Add(0, trace.Event{Kind: trace.KindWinCreate, Win: 1, Comm: 0, Def: &trace.Def{WinBase: 0, WinSize: 8, DispUnit: 1}})
	b.Add(0, trace.Event{Kind: trace.KindWinCreate, Win: 1, Comm: 0, Def: &trace.Def{WinBase: 64, WinSize: 8, DispUnit: 1}})
	if _, err := Build(b.Set()); err == nil {
		t.Error("duplicate window definition must error")
	}
}

func TestFootprints(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(7, 0x2000, 128) // disp unit 1
	putID := b.Add(0, trace.Event{
		Kind: trace.KindPut, Win: 7, Target: 1,
		OriginAddr: 0x500, OriginType: trace.TypeFloat64, OriginCount: 2,
		TargetDisp: 16, TargetType: trace.TypeFloat64, TargetCount: 2,
	})
	m, err := Build(b.Set())
	if err != nil {
		t.Fatal(err)
	}
	put := m.Set.Get(putID)

	tw, err := m.TargetWorld(put)
	if err != nil || tw != 1 {
		t.Errorf("target world = %d, %v", tw, err)
	}
	tf, err := m.TargetFootprint(put)
	if err != nil {
		t.Fatal(err)
	}
	if tf.Rank != 1 || len(tf.Intervals) != 1 || tf.Intervals[0] != memory.Iv(0x2000+16, 16) {
		t.Errorf("target footprint = %+v", tf)
	}
	of, err := m.OriginFootprint(put)
	if err != nil {
		t.Fatal(err)
	}
	if of.Rank != 0 || of.Intervals[0] != memory.Iv(0x500, 16) {
		t.Errorf("origin footprint = %+v", of)
	}

	// Footprint overlap requires the same rank.
	a := Footprint{Rank: 0, Intervals: []memory.Interval{memory.Iv(0, 10)}}
	c := Footprint{Rank: 1, Intervals: []memory.Interval{memory.Iv(0, 10)}}
	if _, ok := a.Overlaps(c); ok {
		t.Error("different ranks must never overlap")
	}
	d := Footprint{Rank: 0, Intervals: []memory.Interval{memory.Iv(5, 1)}}
	if iv, ok := a.Overlaps(d); !ok || iv != memory.Iv(5, 1) {
		t.Errorf("overlap = %v %v", iv, ok)
	}
}

func TestAccessFootprintAndWindowAt(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(3, 0x4000, 64)
	ld := b.Add(1, trace.Event{Kind: trace.KindLoad, Addr: 0x4010, Size: 8})
	m, err := Build(b.Set())
	if err != nil {
		t.Fatal(err)
	}
	f := AccessFootprint(m.Set.Get(ld))
	if f.Rank != 1 || f.Intervals[0] != memory.Iv(0x4010, 8) {
		t.Errorf("access footprint = %+v", f)
	}
	ws := m.RankWindows(1)
	if len(ws) != 1 || ws[0].Info.ID != 3 || !ws[0].Buf.Overlaps(f.Intervals[0]) {
		t.Errorf("RankWindows(1) = %+v", ws)
	}
	if ws[0].Buf.Overlaps(memory.Iv(0x9000, 4)) {
		t.Error("address outside windows matched")
	}
	if ws := m.RankWindows(7); ws != nil {
		t.Errorf("RankWindows(7) = %+v, want none", ws)
	}
}

// Windows exposing the same buffer are all listed, in ascending ID,
// whatever order they were created in.
func TestRankWindowsSharedBuffer(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	for _, id := range []int32{9, 2, 5} {
		b.WinCreate(id, 0x4000, 64)
	}
	m, err := Build(b.Set())
	if err != nil {
		t.Fatal(err)
	}
	for r := int32(0); r < 2; r++ {
		var ids []int32
		for _, w := range m.RankWindows(r) {
			ids = append(ids, w.Info.ID)
		}
		if !slices.Equal(ids, []int32{2, 5, 9}) {
			t.Errorf("rank %d windows = %v, want [2 5 9]", r, ids)
		}
	}
}

func TestTargetFootprintErrors(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	bar := b.Add(0, trace.Event{Kind: trace.KindBarrier, Comm: 0})
	b.Add(1, trace.Event{Kind: trace.KindBarrier, Comm: 0})
	put := b.Add(0, trace.Event{Kind: trace.KindPut, Win: 42, Target: 1,
		OriginType: trace.TypeByte, TargetType: trace.TypeByte, OriginCount: 1, TargetCount: 1})
	m, err := Build(b.Set())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TargetFootprint(m.Set.Get(put)); err == nil {
		t.Error("unknown window must error")
	}
	if _, err := m.TargetFootprint(m.Set.Get(bar)); err == nil {
		t.Error("non-RMA event must error")
	}
}

// TestFootprintTilingBounded: counts come straight from the trace, so a
// strided footprint with a count near 2^31 fails to resolve instead of
// asking for 2^31 intervals, while a type whose tile coalesces into one
// interval resolves at any count in a single step.
func TestFootprintTilingBounded(t *testing.T) {
	run := memory.DataMap{Extent: 1 << 16} // 2^16 one-byte segments, back to back
	for i := uint64(0); i < 1<<16; i++ {
		run.Segments = append(run.Segments, memory.Segment{Disp: i, Len: 1})
	}
	b := testutil.NewTraceBuilder(2)
	b.Add(0, trace.Event{Kind: trace.KindTypeCreate, Def: &trace.Def{TypeID: trace.TypeUserBase,
		TypeMap: memory.DataMap{Segments: []memory.Segment{{Disp: 0, Len: 4}, {Disp: 12, Len: 4}}, Extent: 16}}})
	b.Add(0, trace.Event{Kind: trace.KindTypeCreate, Def: &trace.Def{TypeID: trace.TypeUserBase + 1, TypeMap: run}})
	b.WinCreate(1, 0x1000, 64)
	put := trace.Event{Kind: trace.KindPut, Win: 1, Target: 1,
		OriginAddr: 0x8000, OriginType: trace.TypeUserBase + 1, OriginCount: math.MaxInt32,
		TargetType: trace.TypeUserBase, TargetCount: math.MaxInt32}
	m, err := Build(b.Set())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TargetFootprint(&put); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("strided footprint of 2^31 elements: err = %v, want the tiling limit", err)
	}
	fp, err := m.OriginFootprint(&put)
	want := []memory.Interval{memory.Iv(0x8000, math.MaxInt32<<16)}
	if err != nil || !slices.Equal(fp.Intervals, want) {
		t.Errorf("coalescing footprint = %v, %v; want %v", fp.Intervals, err, want)
	}
}

// TestBuildZeroPayloadDefinitions: definition events without a payload,
// as a hand-built or uploaded trace may carry, are read as zero payloads
// rather than dereferenced.
func TestBuildZeroPayloadDefinitions(t *testing.T) {
	b := testutil.NewTraceBuilder(1)
	b.Add(0, trace.Event{Kind: trace.KindTypeCreate})
	b.Add(0, trace.Event{Kind: trace.KindCommCreate, Comm: 3})
	b.Add(0, trace.Event{Kind: trace.KindWinCreate, Win: 1})
	m, err := Build(b.Set())
	if err != nil {
		t.Fatal(err)
	}
	if c, err := m.Comm(3); err != nil || c.Size() != 0 {
		t.Errorf("comm 3 = %v, %v; want an empty communicator", c, err)
	}
	if wi, err := m.Win(1); err != nil || wi.Locals[0] != (WinLocal{}) {
		t.Errorf("window 1 = %+v, %v; want a zero local buffer", wi, err)
	}
}
