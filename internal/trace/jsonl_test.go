package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/memory"
)

func TestJSONLRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := NewSet(3)
	for r := range s.Traces {
		s.Traces[r].Events = sampleEvents(int32(r), 40, rng)
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ranks() != 3 || got.TotalEvents() != 120 {
		t.Fatalf("ranks=%d events=%d", got.Ranks(), got.TotalEvents())
	}
	for r := range s.Traces {
		for i := range s.Traces[r].Events {
			a := normalize(s.Traces[r].Events[i])
			b := normalize(got.Traces[r].Events[i])
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("rank %d event %d:\n got %#v\nwant %#v", r, i, b, a)
			}
		}
	}
}

func TestJSONLHumanReadable(t *testing.T) {
	s := NewSet(1)
	s.Traces[0].Events = []Event{{
		Kind: KindPut, Rank: 0, Seq: 0, Win: 1, Target: 2,
		AccOp: OpSum, Lock: LockShared, File: "x.go", Line: 7,
	}}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, s); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	for _, want := range []string{`"kind":"Put"`, `"accop":"SUM"`, `"lock":"shared"`, `"file":"x.go"`} {
		if !strings.Contains(line, want) {
			t.Errorf("jsonl missing %s:\n%s", want, line)
		}
	}
}

func TestJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader(`{"kind":"NoSuchCall","rank":0,"seq":0}`)); err == nil {
		t.Error("unknown kind must error")
	}
	if _, err := ReadJSONL(strings.NewReader(`{broken`)); err == nil {
		t.Error("malformed json must error")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"kind":"Barrier","rank":0,"seq":5}`)); err == nil {
		t.Error("non-dense seq must fail validation")
	}
}

func TestJSONLEmpty(t *testing.T) {
	got, err := ReadJSONL(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if got.Ranks() != 0 {
		t.Errorf("ranks = %d", got.Ranks())
	}
}

// TestJSONLRoundTripEveryKind: every kind survives the JSONL round trip
// with a zero payload, which must come back as a nil Def, and with a
// nonzero one.
func TestJSONLRoundTripEveryKind(t *testing.T) {
	payload := &Def{
		TypeID: TypeUserBase, DispUnit: 4,
		TypeMap: memory.DataMap{Segments: []memory.Segment{{Disp: 0, Len: 4}, {Disp: 8, Len: 4}}, Extent: 16},
		Members: []int32{0, 2}, WinBase: 0x1000, WinSize: 64,
	}
	s := NewSet(1)
	for k := Kind(1); k < kindMax; k++ {
		for _, d := range []*Def{nil, payload} {
			s.Traces[0].Events = append(s.Traces[0].Events, Event{
				Kind: k, Seq: int64(len(s.Traces[0].Events)), File: "a.go", Line: 3, Def: d,
			})
		}
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Traces[0].Events, s.Traces[0].Events) {
		t.Fatalf("round trip changed events:\n got %v\nwant %v", got.Traces[0].Events, s.Traces[0].Events)
	}
}

// TestJSONLRejectsBadRanks: a negative rank is an error, not a panic,
// and a rank far past the events read is refused before a set of that
// many ranks is allocated.
func TestJSONLRejectsBadRanks(t *testing.T) {
	for _, in := range []string{
		`{"kind":"Barrier","rank":-1,"seq":0}`,
		`{"kind":"Barrier","rank":0,"seq":0}` + "\n" + `{"kind":"Barrier","rank":2147483647,"seq":0}`,
	} {
		if _, err := ReadJSONL(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "rank") {
			t.Errorf("ReadJSONL(%q) = %v, want a rank error", in, err)
		}
	}
	// Ranks without events below the largest are still allowed.
	got, err := ReadJSONL(strings.NewReader(`{"kind":"Barrier","rank":1,"seq":0}`))
	if err != nil || got.Ranks() != 2 {
		t.Fatalf("sparse ranks: set %v, err %v", got, err)
	}
}
