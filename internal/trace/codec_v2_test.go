package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// toV1 rewrites a v2 stream as the v1 format: version byte 1, no
// event-count hint. Used to prove readers still accept pre-hint streams.
func toV1(t *testing.T, data []byte) []byte {
	t.Helper()
	if len(data) < 6 || string(data[:4]) != codecMagic || data[4] != codecVersion {
		t.Fatalf("not a v2 stream: % x", data[:6])
	}
	_, rankLen := binary.Varint(data[5:])
	if rankLen <= 0 {
		t.Fatal("bad rank varint")
	}
	_, hintLen := binary.Uvarint(data[5+rankLen:])
	if hintLen <= 0 {
		t.Fatal("bad hint uvarint")
	}
	out := append([]byte(nil), data[:4]...)
	out = append(out, codecVersionV1)
	out = append(out, data[5:5+rankLen]...)
	return append(out, data[5+rankLen+hintLen:]...)
}

func encodeSample(t *testing.T, rank int32, n int) (*Trace, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(rank)*1000 + int64(n)))
	tr := &Trace{Rank: rank, Events: sampleEvents(rank, n, rng)}
	data, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	return tr, data
}

func eventsEqual(t *testing.T, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(normalize(got[i]), normalize(want[i])) {
			t.Fatalf("event %d mismatch:\n got %#v\nwant %#v", i, got[i], want[i])
		}
	}
}

// TestCodecV1StreamsStillDecode: the reader must accept the pre-hint
// format byte-for-byte, both strictly and in salvage mode.
func TestCodecV1StreamsStillDecode(t *testing.T) {
	want, v2 := encodeSample(t, 5, 120)
	v1 := toV1(t, v2)

	got, err := ReadTrace(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("strict v1 decode: %v", err)
	}
	if got.Rank != 5 {
		t.Fatalf("rank = %d", got.Rank)
	}
	eventsEqual(t, got.Events, want.Events)

	sv, res, err := ReadTraceSalvage(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("salvage v1 decode: %v", err)
	}
	if !res.Complete || res.Events != len(want.Events) {
		t.Fatalf("salvage result %+v on a complete v1 stream", res)
	}
	eventsEqual(t, sv.Events, want.Events)
}

// TestCodecSalvageTruncatedV1: truncating a v1 stream still yields a
// valid event prefix, like v2.
func TestCodecSalvageTruncatedV1(t *testing.T) {
	want, v2 := encodeSample(t, 2, 80)
	v1 := toV1(t, v2)
	for _, cut := range []int{len(v1) / 4, len(v1) / 2, len(v1) - 1} {
		got, res, err := ReadTraceSalvage(bytes.NewReader(v1[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if res.Complete {
			t.Fatalf("cut %d: truncated stream reported complete", cut)
		}
		if len(got.Events) > len(want.Events) {
			t.Fatalf("cut %d: salvaged %d events from an %d-event stream", cut, len(got.Events), len(want.Events))
		}
		eventsEqual(t, got.Events, want.Events[:len(got.Events)])
	}
}

// TestCodecHintMismatchTolerated: the count hint is advisory; streams
// carrying hints far above or below the actual event count decode fully.
func TestCodecHintMismatchTolerated(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	evs := sampleEvents(0, 37, rng)
	for _, hint := range []int{0, 1, 37, 5000} {
		var buf bytes.Buffer
		w, err := NewWriterHint(&buf, 0, hint)
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
			t.Fatalf("hint %d: %v", hint, err)
		}
		eventsEqual(t, got.Events, evs)
	}
}

// TestCodecHugeHintClamped: a hostile header hinting 2^40 events must not
// force a giant allocation; the hint is clamped and decode proceeds.
func TestCodecHugeHintClamped(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(codecMagic)
	buf.WriteByte(codecVersion)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], 0) // rank 0
	buf.Write(tmp[:n])
	n = binary.PutUvarint(tmp[:], 1<<40)
	buf.Write(tmp[:n])
	buf.WriteByte(recEnd)

	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 0 {
		t.Fatalf("decoded %d events from an empty stream", len(got.Events))
	}
	if cap(got.Events) > maxPreallocEvents {
		t.Fatalf("hint preallocated %d slots; clamp is %d", cap(got.Events), maxPreallocEvents)
	}
}

// TestMinEventRecord: the smallest event record — every field zero, both
// strings empty — takes exactly minEventRecord bytes, the bound the
// decoder divides the stream length by to clamp the count hint.
func TestMinEventRecord(t *testing.T) {
	encode := func(events int) int {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		for range events {
			w.Emit(Event{Kind: KindBarrier})
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	if got := encode(1) - encode(0); got != minEventRecord {
		t.Fatalf("smallest event record is %d bytes, minEventRecord is %d", got, minEventRecord)
	}
}

// TestHintBoundedByInput: a 9-byte stream whose header hints 2^16 events
// must not preallocate them — whether the reader reports its length, is
// a file, or only reaches its end within the first window — while an
// honest hint still sizes the slice exactly.
func TestHintBoundedByInput(t *testing.T) {
	var hostile []byte
	hostile = append(hostile, codecMagic...)
	hostile = append(hostile, codecVersion)
	hostile = binary.AppendVarint(hostile, 0)
	hostile = binary.AppendUvarint(hostile, maxPreallocEvents)
	if len(hostile) != 9 {
		t.Fatalf("hostile stream is %d bytes", len(hostile))
	}
	path := filepath.Join(t.TempDir(), "rank0.mcct")
	if err := os.WriteFile(path, hostile, 0o644); err != nil {
		t.Fatal(err)
	}
	readers := map[string]func() io.Reader{
		"bytes":   func() io.Reader { return bytes.NewReader(hostile) },
		"unsized": func() io.Reader { return io.MultiReader(bytes.NewReader(hostile)) },
		"file": func() io.Reader {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return f
		},
	}
	for name, open := range readers {
		t.Run(name, func(t *testing.T) {
			decode := func() {
				ReadTrace(open())
				ReadTraceSalvage(open())
			}
			decode() // warm the decode-context pool
			const rounds = 8
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range rounds {
				decode()
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / (2 * rounds); per >= 64<<10 {
				t.Errorf("decoding the 9-byte stream allocated %d B", per)
			}
		})
	}

	want, data := encodeSample(t, 3, 150)
	got, err := ReadTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if cap(got.Events) != len(want.Events) {
		t.Errorf("honest hint of %d events gave capacity %d", len(want.Events), cap(got.Events))
	}
}

// TestDecodePoolReuseSequential: repeated decodes of one stream, each
// on a recycled decode context, keep producing identical results.
func TestDecodePoolReuseSequential(t *testing.T) {
	want, data := encodeSample(t, 3, 150)
	for i := 0; i < 10; i++ {
		got, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		eventsEqual(t, got.Events, want.Events)
	}
}

// TestDecodePoolOffEquivalence: a decode context recycled after a stream
// that grew its window, filled its intern table and failed mid-record
// decodes the next stream exactly like a fresh context.
func TestDecodePoolOffEquivalence(t *testing.T) {
	want, data := encodeSample(t, 1, 90)
	big := &Trace{Rank: 0, Events: []Event{{Kind: KindLoad, File: strings.Repeat("f", 3*decodeWindow), Func: "g"}}}
	bigData, err := EncodeTrace(big)
	if err != nil {
		t.Fatal(err)
	}
	readerOf := func(data []byte) *reader {
		rd := newReader()
		rd.r = bytes.NewReader(data)
		return rd
	}
	for _, dirty := range [][]byte{bigData, bigData[:len(bigData)-5], data[:len(data)/2]} {
		recycled := readerOf(dirty)
		if _, _, err := recycled.readHeader(); err != nil {
			t.Fatal(err)
		}
		recycled.readRecords(&Trace{}, true)
		recycled.reset()
		recycled.r = bytes.NewReader(data)
		for _, ctx := range []*reader{recycled, readerOf(data)} {
			rank, _, err := ctx.readHeader()
			if err != nil {
				t.Fatal(err)
			}
			got := &Trace{Rank: rank}
			if err := ctx.readRecords(got, false); err != nil {
				t.Fatal(err)
			}
			eventsEqual(t, got.Events, want.Events)
		}
	}
}

// TestDecodePoolConcurrent exercises pooled decode contexts from many
// goroutines; run under -race this proves contexts are never shared.
func TestDecodePoolConcurrent(t *testing.T) {
	traces := make([]*Trace, 4)
	datas := make([][]byte, 4)
	for r := range traces {
		traces[r], datas[r] = encodeSample(t, int32(r), 60+10*r)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				r := (g + i) % len(traces)
				got, err := ReadTrace(bytes.NewReader(datas[r]))
				if err != nil {
					t.Error(err)
					return
				}
				if got.Rank != traces[r].Rank || len(got.Events) != len(traces[r].Events) {
					t.Errorf("goroutine %d: decoded rank %d with %d events, want rank %d with %d",
						g, got.Rank, len(got.Events), traces[r].Rank, len(traces[r].Events))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReadDirMatchesSerialAssembly: the concurrent per-file decode of
// ReadDir assembles the same set a rank-by-rank strict read does.
func TestReadDirMatchesSerialAssembly(t *testing.T) {
	dir := t.TempDir()
	set := NewSet(6)
	rng := rand.New(rand.NewSource(77))
	for r := range set.Traces {
		set.Traces[r].Events = sampleEvents(int32(r), 40+7*r, rng)
	}
	if err := WriteDir(dir, set); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ranks() != set.Ranks() {
		t.Fatalf("got %d ranks, want %d", got.Ranks(), set.Ranks())
	}
	for r := range set.Traces {
		eventsEqual(t, got.Traces[r].Events, set.Traces[r].Events)
	}
}
