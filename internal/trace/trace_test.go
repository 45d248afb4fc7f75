package trace

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestSetBasics(t *testing.T) {
	s := NewSet(3)
	if s.Ranks() != 3 || s.TotalEvents() != 0 {
		t.Fatalf("fresh set: ranks=%d events=%d", s.Ranks(), s.TotalEvents())
	}
	s.Traces[1].Events = append(s.Traces[1].Events, Event{Kind: KindBarrier, Rank: 1, Seq: 0})
	if s.TotalEvents() != 1 {
		t.Error("TotalEvents wrong")
	}
	ev := s.Get(ID{Rank: 1, Seq: 0})
	if ev.Kind != KindBarrier {
		t.Error("Get returned wrong event")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestSetValidateCatchesCorruption(t *testing.T) {
	s := NewSet(2)
	s.Traces[0].Events = []Event{{Kind: KindBarrier, Rank: 0, Seq: 1}} // bad seq
	if s.Validate() == nil {
		t.Error("expected seq error")
	}
	s = NewSet(2)
	s.Traces[0].Events = []Event{{Kind: KindBarrier, Rank: 1, Seq: 0}} // bad rank
	if s.Validate() == nil {
		t.Error("expected rank error")
	}
	s = NewSet(1)
	s.Traces[0].Events = []Event{{Kind: KindInvalid, Rank: 0, Seq: 0}}
	if s.Validate() == nil {
		t.Error("expected kind error")
	}
}

func TestMemorySinkConcurrent(t *testing.T) {
	sink := NewMemorySink()
	var wg sync.WaitGroup
	const ranks, per = 8, 100
	for r := int32(0); r < ranks; r++ {
		wg.Add(1)
		go func(r int32) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sink.Emit(Event{Kind: KindLoad, Rank: r, Seq: int64(i), Addr: uint64(i)})
			}
		}(r)
	}
	wg.Wait()
	s := sink.Set()
	if s.Ranks() != ranks || s.TotalEvents() != ranks*per {
		t.Fatalf("ranks=%d events=%d", s.Ranks(), s.TotalEvents())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Per-rank order preserved.
	for i, ev := range s.Traces[3].Events {
		if ev.Addr != uint64(i) {
			t.Fatalf("rank 3 event %d addr=%d", i, ev.Addr)
		}
	}
}

func TestCountingSink(t *testing.T) {
	c := NewCountingSink(nil)
	for _, k := range []Kind{KindLoad, KindStore, KindPut, KindWinFence, KindSend, KindBarrier, KindTypeCreate, KindWaitReq} {
		c.Emit(Event{Kind: k})
	}
	st := c.Stats()
	if st.LoadStore != 2 || st.RMAComm != 1 || st.RMASync != 1 || st.P2P != 2 || st.Collect != 1 || st.Other != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Total() != 8 || st.MPIEvents() != 6 {
		t.Errorf("totals: %d %d", st.Total(), st.MPIEvents())
	}
	// Wrapping another sink forwards events.
	mem := NewMemorySink()
	c2 := NewCountingSink(mem)
	c2.Emit(Event{Kind: KindBarrier, Rank: 0, Seq: 0})
	if mem.Set().TotalEvents() != 1 {
		t.Error("inner sink did not receive event")
	}
}

func TestMergeErrors(t *testing.T) {
	if _, err := Merge(&Trace{Rank: 0}, &Trace{Rank: 0}); err == nil {
		t.Error("duplicate rank must error")
	}
	if _, err := Merge(&Trace{Rank: 1}); err == nil {
		t.Error("missing rank 0 must error")
	}
	s, err := Merge(&Trace{Rank: 1}, &Trace{Rank: 0})
	if err != nil || s.Ranks() != 2 {
		t.Errorf("merge failed: %v", err)
	}
	if _, err := Merge(&Trace{Rank: -1}); err == nil {
		t.Error("negative rank must error")
	}
	if _, err := Merge(&Trace{Rank: 0}, &Trace{Rank: -1}); err == nil {
		t.Error("negative rank beside a valid one must error")
	}
}

// TestNegativeRankDirRejected: a stream whose header claims rank -1, in a
// file named for rank -1 or for a valid rank, makes ReadDir and
// ReadDirSalvage return an error or a note, never panic.
func TestNegativeRankDirRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	neg, err := EncodeTrace(&Trace{Rank: -1, Events: sampleEvents(-1, 4, rng)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(bytes.NewReader(neg)); err == nil || !strings.Contains(err.Error(), "rank -1 out of range") {
		t.Fatalf("ReadTrace of a rank -1 header: %v", err)
	}
	if _, _, err := ReadTraceSalvage(bytes.NewReader(neg)); err == nil {
		t.Fatal("ReadTraceSalvage accepted a rank -1 header")
	}

	alone := t.TempDir()
	if err := os.WriteFile(filepath.Join(alone, "trace.-1.bin"), neg, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(alone); err == nil {
		t.Error("ReadDir accepted a directory holding only trace.-1.bin")
	}
	if _, _, err := ReadDirSalvage(alone, nil); err == nil {
		t.Error("ReadDirSalvage accepted a directory holding only trace.-1.bin")
	}

	misnamed := t.TempDir()
	good, err := EncodeTrace(&Trace{Rank: 0, Events: sampleEvents(0, 4, rng)})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{FileName(0): good, FileName(1): neg, "trace.-1.bin": neg} {
		if err := os.WriteFile(filepath.Join(misnamed, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ReadDir(misnamed); err == nil || !strings.Contains(err.Error(), "trace.1.bin") {
		t.Errorf("ReadDir with a rank -1 header in trace.1.bin: %v", err)
	}
	set, notes, err := ReadDirSalvage(misnamed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if set.Ranks() != 2 || len(set.Traces[0].Events) != 4 || len(set.Traces[1].Events) != 0 {
		t.Fatalf("salvaged set spans %d ranks", set.Ranks())
	}
	want := []string{
		"trace.1.bin: lost entirely: trace: header rank -1 out of range",
		"rank 1: no events recovered",
	}
	if !reflect.DeepEqual(notes, want) {
		t.Fatalf("notes = %q, want %q", notes, want)
	}
}

func TestWriteReadDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	rng := rand.New(rand.NewSource(2))
	s := NewSet(4)
	for r := range s.Traces {
		s.Traces[r].Events = sampleEvents(int32(r), 50, rng)
	}
	if err := WriteDir(dir, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ranks() != 4 || got.TotalEvents() != 200 {
		t.Fatalf("ranks=%d events=%d", got.Ranks(), got.TotalEvents())
	}
	for r := range s.Traces {
		for i := range s.Traces[r].Events {
			if !reflect.DeepEqual(normalize(s.Traces[r].Events[i]), normalize(got.Traces[r].Events[i])) {
				t.Fatalf("rank %d event %d differs", r, i)
			}
		}
	}
}

func TestReadDirEmpty(t *testing.T) {
	if _, err := ReadDir(t.TempDir()); err == nil {
		t.Error("empty dir must error")
	}
}

func TestFileSink(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewFileSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := int32(0); r < 4; r++ {
		wg.Add(1)
		go func(r int32) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				sink.Emit(Event{Kind: KindStore, Rank: r, Seq: int64(i), Addr: uint64(r*1000 + int32(i))})
			}
		}(r)
	}
	wg.Wait()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Ranks() != 4 || s.TotalEvents() != 100 {
		t.Fatalf("ranks=%d events=%d", s.Ranks(), s.TotalEvents())
	}
	if s.Traces[2].Events[10].Addr != 2010 {
		t.Error("file sink mangled event order")
	}
}

func TestSortedKinds(t *testing.T) {
	s := NewSet(1)
	s.Traces[0].Events = []Event{
		{Kind: KindStore, Rank: 0, Seq: 0},
		{Kind: KindLoad, Rank: 0, Seq: 1},
		{Kind: KindStore, Rank: 0, Seq: 2},
	}
	got := s.SortedKinds()
	want := []Kind{KindLoad, KindStore}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SortedKinds = %v, want %v", got, want)
	}
}

// emitN emits n load events for rank with Addr = base+i.
func emitN(sink *MemorySink, rank int32, n int, base uint64) {
	for i := 0; i < n; i++ {
		sink.Emit(Event{Kind: KindLoad, Rank: rank, Seq: int64(i), Addr: base + uint64(i)})
	}
}

func checkAddrs(t *testing.T, what string, evs []Event, n int, base uint64) {
	t.Helper()
	if len(evs) != n {
		t.Fatalf("%s: %d events, want %d", what, len(evs), n)
	}
	for i := range evs {
		if evs[i].Addr != base+uint64(i) || evs[i].Seq != int64(i) {
			t.Fatalf("%s: event %d = seq %d addr %d", what, i, evs[i].Seq, evs[i].Addr)
		}
	}
}

// TestMemorySinkChunks crosses every chunk boundary up to the chunk cap
// and checks that Set and TakeSet return the events in emission order,
// with Set's slices exact-size and independent of the sink.
func TestMemorySinkChunks(t *testing.T) {
	for _, n := range []int{0, 1, firstChunkEvents - 1, firstChunkEvents, firstChunkEvents + 1,
		3 * firstChunkEvents, 2*maxChunkEvents + 5} {
		sink := NewMemorySink()
		emitN(sink, 0, n, 1000)
		emitN(sink, 2, 3, 0)
		s := sink.Set()
		checkAddrs(t, "Set", s.Traces[0].Events, n, 1000)
		if cap(s.Traces[0].Events) != n {
			t.Errorf("n=%d: Set slice has cap %d", n, cap(s.Traces[0].Events))
		}
		if s.Ranks() != 3 || len(s.Traces[1].Events) != 0 {
			t.Fatalf("n=%d: ranks=%d, rank 1 holds %d events", n, s.Ranks(), len(s.Traces[1].Events))
		}
		taken := sink.TakeSet()
		checkAddrs(t, "TakeSet", taken.Traces[0].Events, n, 1000)
		sink.Reset()
		emitN(sink, 0, n, 5000)
		checkAddrs(t, "Set after Reset", s.Traces[0].Events, n, 1000)
	}
}

// TestMemorySinkRecycles pins the recycling contract explore relies on:
// TakeSet aliases the sink's storage, and after Reset a comparable run is
// re-collected and taken again without allocating.
func TestMemorySinkRecycles(t *testing.T) {
	const n = 3*maxChunkEvents + 17
	sink := NewMemorySink()
	emitN(sink, 1, n, 0)
	first := sink.TakeSet().Traces[1].Events
	checkAddrs(t, "first run", first, n, 0)
	allocs := testing.AllocsPerRun(3, func() {
		sink.Reset()
		emitN(sink, 1, n, 7)
		evs := sink.TakeSet().Traces[1].Events
		if &evs[0] != &first[0] {
			t.Fatal("TakeSet after Reset does not alias the recycled storage")
		}
	})
	checkAddrs(t, "recycled run", first, n, 7)
	// TakeSet's Set header and its per-rank Trace values are the only
	// allocations left.
	if allocs > 4 {
		t.Errorf("recycled collection allocates %.0f times, want <= 4", allocs)
	}
}
