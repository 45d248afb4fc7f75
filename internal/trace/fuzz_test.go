package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/memory"
)

// FuzzReadTrace hardens the binary decoder against corrupt and adversarial
// inputs: it must return an error or a valid trace, never panic and never
// allocate unboundedly.
func FuzzReadTrace(f *testing.F) {
	// Seed with valid streams of growing complexity.
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 10, 100} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, 3)
		if err != nil {
			f.Fatal(err)
		}
		for _, ev := range sampleEvents(3, n, rng) {
			w.Emit(ev)
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("MCCT"))
	f.Add([]byte{})
	f.Add([]byte(codecMagic + "\x02\x01\x00\x00")) // header claims rank -1

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully decoded trace must be internally consistent.
		if tr.Rank < 0 {
			t.Fatalf("decoded negative rank %d", tr.Rank)
		}
		for i := range tr.Events {
			ev := &tr.Events[i]
			if ev.Rank != tr.Rank || ev.Seq != int64(i) {
				t.Fatalf("inconsistent decode: event %d = %v", i, ev.ID())
			}
			if ev.Kind == KindInvalid || ev.Kind >= kindMax {
				t.Fatalf("invalid kind decoded: %d", ev.Kind)
			}
		}
	})
}

// FuzzReadTraceSalvage hardens the salvage decoder: it must never panic,
// and whatever it recovers must be a valid (possibly empty) event prefix
// with dense sequence numbers and legal kinds. On any stream strict
// ReadTrace accepts, salvage must agree exactly and report completeness.
func FuzzReadTraceSalvage(f *testing.F) {
	rng := rand.New(rand.NewSource(43))
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 3)
	if err != nil {
		f.Fatal(err)
	}
	for _, ev := range sampleEvents(3, 40, rng) {
		w.Emit(ev)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	golden := buf.Bytes()
	f.Add(golden)
	for _, cut := range []int{0, 1, 5, len(golden) / 2, len(golden) - 1} {
		f.Add(golden[:cut])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, res, err := ReadTraceSalvage(bytes.NewReader(data))
		strict, serr := ReadTrace(bytes.NewReader(data))
		if err != nil {
			// Salvage gives up only when the header itself is unreadable —
			// then strict decoding must have failed too.
			if serr == nil {
				t.Fatalf("salvage rejected a stream strict decoding accepts")
			}
			return
		}
		if res.Events != len(tr.Events) {
			t.Fatalf("result reports %d events, trace holds %d", res.Events, len(tr.Events))
		}
		if res.Complete == (res.Reason != "") {
			t.Fatalf("inconsistent result: complete=%v reason=%q", res.Complete, res.Reason)
		}
		for i := range tr.Events {
			ev := &tr.Events[i]
			if ev.Rank != tr.Rank || ev.Seq != int64(i) {
				t.Fatalf("invalid prefix: event %d = %v", i, ev.ID())
			}
			if ev.Kind == KindInvalid || ev.Kind >= kindMax {
				t.Fatalf("invalid kind recovered: %d", ev.Kind)
			}
		}
		if serr == nil {
			if !res.Complete {
				t.Fatalf("strict decoding succeeded but salvage reports truncation: %q", res.Reason)
			}
			if len(tr.Events) != len(strict.Events) {
				t.Fatalf("salvage recovered %d events, strict %d", len(tr.Events), len(strict.Events))
			}
		}
	})
}

// TestSalvageEveryTruncationBoundary cuts a golden trace at every byte
// offset — every header and record boundary included — and checks that
// salvage recovers a correct, monotonically growing event prefix.
func TestSalvageEveryTruncationBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	evs := sampleEvents(2, 25, rng)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		w.Emit(ev)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	golden := buf.Bytes()

	full, res, err := ReadTraceSalvage(bytes.NewReader(golden))
	if err != nil || !res.Complete || len(full.Events) != len(evs) {
		t.Fatalf("golden trace: recovered %d/%d events, complete=%v, err=%v",
			len(full.Events), len(evs), res.Complete, err)
	}

	prev, headerDone := 0, false
	for cut := 0; cut <= len(golden); cut++ {
		tr, res, err := ReadTraceSalvage(bytes.NewReader(golden[:cut]))
		if err != nil {
			// Only an unreadable header is fatal, and once any cut clears
			// the header, every longer cut must too.
			if headerDone {
				t.Fatalf("cut %d: header error after a shorter cut succeeded: %v", cut, err)
			}
			continue
		}
		headerDone = true
		if cut < len(golden) && res.Complete {
			t.Fatalf("cut %d: truncated stream claims completeness", cut)
		}
		if cut == len(golden) && !res.Complete {
			t.Fatalf("full stream not recognized as complete: %q", res.Reason)
		}
		if len(tr.Events) < prev {
			t.Fatalf("cut %d: recovered %d events, shorter cut gave %d", cut, len(tr.Events), prev)
		}
		prev = len(tr.Events)
		for i := range tr.Events {
			if tr.Events[i].ID() != full.Events[i].ID() {
				t.Fatalf("cut %d: event %d = %v, want %v", cut, i, tr.Events[i].ID(), full.Events[i].ID())
			}
		}
	}
	if !headerDone {
		t.Fatal("no cut cleared the header")
	}
}

// fieldReader draws event fields from fuzzer bytes, reading zeros once
// the input runs out.
type fieldReader struct{ data []byte }

func (r *fieldReader) next(n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v <<= 8
		if len(r.data) > 0 {
			v |= uint64(r.data[0])
			r.data = r.data[1:]
		}
	}
	return v
}

func (r *fieldReader) u8() uint8   { return uint8(r.next(1)) }
func (r *fieldReader) i32() int32  { return int32(r.next(4)) }
func (r *fieldReader) u64() uint64 { return r.next(8) }

// event builds one event with every encoded field drawn from the input;
// File and Func are picked from strs so that events share strings.
func (r *fieldReader) event(rank int32, seq int64, strs []string) Event {
	ev := Event{
		Kind: Kind(1 + r.u8()%uint8(kindMax-1)), Rank: rank, Seq: seq,
		File: strs[int(r.u8())%len(strs)], Line: r.i32(), Func: strs[int(r.u8())%len(strs)],
		Comm: r.i32(), Peer: r.i32(), Tag: r.i32(), Req: r.i32(),
		Win: r.i32(), Target: r.i32(), Lock: LockType(r.u8()), AccOp: AccOp(r.u8()),
		OriginAddr: r.u64(), OriginType: r.i32(), OriginCount: r.i32(),
		TargetDisp: r.u64(), TargetType: r.i32(), TargetCount: r.i32(),
		Assert:     r.i32(),
		ResultAddr: r.u64(), ResultType: r.i32(), ResultCount: r.i32(),
		Addr: r.u64(), Size: r.u64(),
	}
	d := Def{TypeID: r.i32()}
	for n := r.u8() % 4; n > 0; n-- {
		d.TypeMap.Segments = append(d.TypeMap.Segments, memory.Segment{Disp: r.u64(), Len: r.u64()})
	}
	d.TypeMap.Extent = r.u64()
	for n := r.u8() % 4; n > 0; n-- {
		d.Members = append(d.Members, r.i32())
	}
	d.WinBase, d.WinSize, d.DispUnit = r.u64(), r.u64(), uint32(r.next(4))
	ev.Def = NewDef(d) // nil for a zero payload, as the decoder produces
	return ev
}

// FuzzRoundTrip: a run of events with every field filled from fuzzed
// bytes, sharing their file and function strings, must survive
// encode/decode unchanged.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{3, 1, 2, 99, 0x10, 0, 0, 0, 7}, "file.go", "main.main")
	f.Add(bytes.Repeat([]byte{0xff}, 600), "", "/src/app.go")
	f.Add(bytes.Repeat([]byte{0x80, 0x01, 0x7f}, 200), "same", "same")
	f.Fuzz(func(t *testing.T, data []byte, file, fn string) {
		r := &fieldReader{data: data}
		strs := []string{file, fn, "", file + fn}
		evs := make([]Event, 1+r.u8()%6)
		for i := range evs {
			evs[i] = r.event(5, int64(i), strs)
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			w.Emit(ev)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(got.Events) != len(evs) {
			t.Fatalf("decoded %d events, want %d", len(got.Events), len(evs))
		}
		for i := range evs {
			if !reflect.DeepEqual(normalize(got.Events[i]), normalize(evs[i])) {
				t.Fatalf("event %d mismatch:\n got %#v\nwant %#v", i, got.Events[i], evs[i])
			}
		}
	})
}
