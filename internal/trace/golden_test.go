package trace

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/memory"
)

// goldenSet is a hand-built two-rank set that exercises every Event field
// the codec stores: negative and extreme varints, the empty string, new
// and repeated file/func strings in interleaved order (including a string
// used as both a file and a function name), datatype segments, communicator
// members and window geometry. testdata/golden holds the encoder's output
// for it, one trace.<rank>.bin per rank; the format is frozen, so the files
// change only with a codec version bump.
func goldenSet() *Set {
	s := NewSet(2)
	evs := []Event{
		{Kind: KindWinCreate, File: "/src/app.go", Line: 10, Func: "main.main",
			Comm: 0, Win: 1, Def: &Def{WinBase: 0x10000, WinSize: 8192, DispUnit: 8}},
		{Kind: KindStore, File: "/src/app.go", Line: 11, Func: "main.main",
			Addr: 0x10008, Size: 8},
		{Kind: KindLoad, File: "", Line: 0, Func: "",
			Addr: math.MaxUint64, Size: 1},
		{Kind: KindPut, File: "/src/lib/halo.go", Line: 42, Func: "main.main",
			Win: 1, Target: 3, OriginAddr: 0x20000, OriginType: TypeFloat64, OriginCount: 16,
			TargetDisp: 4, TargetType: TypeFloat64, TargetCount: 16},
		{Kind: KindRecv, File: "/src/app.go", Line: -7, Func: "halo.exchange",
			Comm: -1, Peer: -1, Tag: -2, Req: -3},
		{Kind: KindGetAccumulate, File: "halo.exchange", Line: math.MaxInt32, Func: "/src/lib/halo.go",
			Win: -5, Target: -1, Lock: LockExclusive, AccOp: OpReplace,
			OriginAddr: 1, OriginType: -9, OriginCount: math.MinInt32,
			TargetDisp: math.MaxUint64, TargetType: TypeUserBase + 3, TargetCount: -1,
			ResultAddr: 0xdeadbeef, ResultType: TypeInt64, ResultCount: 2},
		{Kind: KindTypeCreate, File: "/src/types.go", Line: 5, Func: "types.build",
			Def: &Def{
				TypeID: TypeUserBase + 3,
				TypeMap: memory.DataMap{
					Segments: []memory.Segment{{Disp: 0, Len: 4}, {Disp: 12, Len: 4}, {Disp: math.MaxUint64 >> 1, Len: 1}},
					Extent:   1 << 40,
				}}},
		{Kind: KindCommCreate, File: "/src/types.go", Line: 6, Func: "",
			Comm: 2, Def: &Def{Members: []int32{0, 2, 5, -1, math.MaxInt32}}},
		{Kind: KindWinFence, File: "/src/app.go", Line: 12, Func: "main.main",
			Win: 1, Assert: -4},
		{Kind: KindWinLock, File: "/src/new.go", Line: 1, Func: "new.fn",
			Win: 1, Target: 2, Lock: LockShared, Assert: math.MinInt32,
			Def: &Def{TypeID: -1, TypeMap: memory.DataMap{Extent: 3},
				DispUnit: math.MaxUint32}},
	}
	for i := range evs {
		evs[i].Rank, evs[i].Seq = 0, int64(i)
	}
	s.Traces[0].Events = evs
	// Rank 1 holds a single event: its count hint differs from rank 0's.
	s.Traces[1].Events = []Event{{Kind: KindBarrier, Rank: 1, File: "/src/app.go", Line: 99, Func: "main.main"}}
	return s
}

func readGolden(t *testing.T, rank int32) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "golden", FileName(rank)))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestEncodeGolden pins the encoded bytes: EncodeTrace and WriteDir must
// reproduce testdata/golden byte for byte, and the golden files must
// decode back to the hand-built set.
func TestEncodeGolden(t *testing.T) {
	s := goldenSet()
	dir := t.TempDir()
	if err := WriteDir(dir, s); err != nil {
		t.Fatal(err)
	}
	for _, tr := range s.Traces {
		want := readGolden(t, tr.Rank)
		enc, err := EncodeTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, want) {
			t.Errorf("rank %d: EncodeTrace differs from golden (%d vs %d bytes)", tr.Rank, len(enc), len(want))
		}
		file, err := os.ReadFile(filepath.Join(dir, FileName(tr.Rank)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, want) {
			t.Errorf("rank %d: WriteDir differs from golden (%d vs %d bytes)", tr.Rank, len(file), len(want))
		}
		got, err := ReadTrace(bytes.NewReader(want))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Events) != len(tr.Events) {
			t.Fatalf("rank %d: golden decodes to %d events, want %d", tr.Rank, len(got.Events), len(tr.Events))
		}
		for i := range tr.Events {
			if !reflect.DeepEqual(normalize(got.Events[i]), normalize(tr.Events[i])) {
				t.Errorf("rank %d event %d:\n got %#v\nwant %#v", tr.Rank, i, got.Events[i], tr.Events[i])
			}
		}
	}
}
