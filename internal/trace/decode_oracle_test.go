package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/memory"
)

// The reference decoder: the byte-at-a-time bufio reader the window
// decoder replaced, kept as the differential oracle. It shares no decode
// code with codec.go — only the format constants — so a disagreement
// between the two points at a decoding bug in one of them.

type oracleReader struct {
	r    *bufio.Reader
	strs []string
}

func newOracleReader(r io.Reader) *oracleReader {
	return &oracleReader{r: bufio.NewReaderSize(r, decodeWindow), strs: []string{""}}
}

func (rd *oracleReader) uvarint() (uint64, error) { return binary.ReadUvarint(rd.r) }
func (rd *oracleReader) varint() (int64, error)   { return binary.ReadVarint(rd.r) }

func (rd *oracleReader) readHeader() (rank int32, hint uint64, err error) {
	var hdr [len(codecMagic) + 1]byte
	if _, err := io.ReadFull(rd.r, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr[:len(codecMagic)]) != codecMagic {
		return 0, 0, errors.New("trace: bad magic")
	}
	version := hdr[len(codecMagic)]
	if version != codecVersionV1 && version != codecVersion {
		return 0, 0, fmt.Errorf("trace: unsupported version %d", version)
	}
	rank64, err := rd.varint()
	if err != nil {
		return 0, 0, fmt.Errorf("trace: reading rank: %w", err)
	}
	if rank64 < 0 || rank64 > math.MaxInt32 {
		return 0, 0, fmt.Errorf("trace: header rank %d out of range", rank64)
	}
	if version >= codecVersion {
		if hint, err = rd.uvarint(); err != nil {
			return 0, 0, fmt.Errorf("trace: reading event-count hint: %w", err)
		}
	}
	return int32(rank64), hint, nil
}

func (rd *oracleReader) varint32(dst *int32, err *error) {
	if *err != nil {
		return
	}
	v, e := rd.varint()
	if e != nil {
		*err = e
		return
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		*err = fmt.Errorf("trace: field value %d overflows int32", v)
		return
	}
	*dst = int32(v)
}

func (rd *oracleReader) uvarint64(dst *uint64, err *error) {
	if *err != nil {
		return
	}
	v, e := rd.uvarint()
	if e != nil {
		*err = e
		return
	}
	*dst = v
}

func (rd *oracleReader) readStrDef() error {
	id, err := rd.uvarint()
	if err != nil {
		return err
	}
	n, err := rd.uvarint()
	if err != nil {
		return err
	}
	if n > 1<<20 {
		return fmt.Errorf("trace: string of %d bytes too long", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(rd.r, buf); err != nil {
		return err
	}
	if id != uint64(len(rd.strs)) {
		return fmt.Errorf("trace: string id %d out of order", id)
	}
	rd.strs = append(rd.strs, string(buf))
	return nil
}

// oracleReadTrace is the reference for ReadTrace.
func oracleReadTrace(r io.Reader) (*Trace, error) {
	rd := newOracleReader(r)
	rank, hint, err := rd.readHeader()
	if err != nil {
		return nil, err
	}
	t := &Trace{Rank: rank}
	preallocEvents(t, hint)
	for {
		tag, err := rd.r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: reading record tag: %w", err)
		}
		switch tag {
		case recEnd:
			return t, nil
		case recStrDef:
			if err := rd.readStrDef(); err != nil {
				return nil, err
			}
		case recEvent:
			ev, err := rd.readEvent(t.Rank, int64(len(t.Events)))
			if err != nil {
				return nil, fmt.Errorf("trace: rank %d event %d: %w", t.Rank, len(t.Events), err)
			}
			t.Events = append(t.Events, ev)
		default:
			return nil, fmt.Errorf("trace: unknown record tag %#x", tag)
		}
	}
}

// oracleReadTraceSalvage is the reference for ReadTraceSalvage.
func oracleReadTraceSalvage(r io.Reader) (*Trace, SalvageResult, error) {
	rd := newOracleReader(r)
	var res SalvageResult
	rank, hint, err := rd.readHeader()
	if err != nil {
		return nil, res, err
	}
	t := &Trace{Rank: rank}
	preallocEvents(t, hint)
	stop := func(format string, args ...any) (*Trace, SalvageResult, error) {
		res.Events = len(t.Events)
		res.Reason = fmt.Sprintf(format, args...)
		return t, res, nil
	}
	for {
		tag, err := rd.r.ReadByte()
		if err != nil {
			return stop("stream ended without end record: %v", err)
		}
		switch tag {
		case recEnd:
			res.Complete = true
			res.Events = len(t.Events)
			return t, res, nil
		case recStrDef:
			if err := rd.readStrDef(); err != nil {
				return stop("bad string definition: %v", err)
			}
		case recEvent:
			ev, err := rd.readEvent(t.Rank, int64(len(t.Events)))
			if err != nil {
				return stop("event %d undecodable: %v", len(t.Events), err)
			}
			t.Events = append(t.Events, ev)
		default:
			return stop("unknown record tag %#x", tag)
		}
	}
}

func (rd *oracleReader) readEvent(rank int32, seq int64) (Event, error) {
	var ev Event
	ev.Rank, ev.Seq = rank, seq
	kb, err := rd.r.ReadByte()
	if err != nil {
		return ev, err
	}
	ev.Kind = Kind(kb)
	if ev.Kind == KindInvalid || ev.Kind >= kindMax {
		return ev, fmt.Errorf("invalid kind %d", kb)
	}

	fileID, err := rd.uvarint()
	if err != nil {
		return ev, err
	}
	if fileID >= uint64(len(rd.strs)) {
		return ev, fmt.Errorf("undefined string id %d", fileID)
	}
	ev.File = rd.strs[fileID]
	funcID, err := rd.uvarint()
	if err != nil {
		return ev, err
	}
	if funcID >= uint64(len(rd.strs)) {
		return ev, fmt.Errorf("undefined string id %d", funcID)
	}
	ev.Func = rd.strs[funcID]

	rd.varint32(&ev.Line, &err)
	rd.varint32(&ev.Comm, &err)
	rd.varint32(&ev.Peer, &err)
	rd.varint32(&ev.Tag, &err)
	rd.varint32(&ev.Req, &err)
	rd.varint32(&ev.Win, &err)
	rd.varint32(&ev.Target, &err)
	if err != nil {
		return ev, err
	}
	lb, err := rd.r.ReadByte()
	if err != nil {
		return ev, err
	}
	ev.Lock = LockType(lb)
	ab, err := rd.r.ReadByte()
	if err != nil {
		return ev, err
	}
	ev.AccOp = AccOp(ab)

	rd.uvarint64(&ev.OriginAddr, &err)
	rd.varint32(&ev.OriginType, &err)
	rd.varint32(&ev.OriginCount, &err)
	rd.uvarint64(&ev.TargetDisp, &err)
	rd.varint32(&ev.TargetType, &err)
	rd.varint32(&ev.TargetCount, &err)
	rd.uvarint64(&ev.ResultAddr, &err)
	rd.varint32(&ev.ResultType, &err)
	rd.varint32(&ev.ResultCount, &err)
	rd.varint32(&ev.Assert, &err)
	rd.uvarint64(&ev.Addr, &err)
	rd.uvarint64(&ev.Size, &err)
	var d Def
	rd.varint32(&d.TypeID, &err)
	if err != nil {
		return ev, err
	}

	nseg, err := rd.uvarint()
	if err != nil {
		return ev, err
	}
	if nseg > 1<<16 {
		return ev, fmt.Errorf("datatype with %d segments too large", nseg)
	}
	if nseg > 0 {
		d.TypeMap.Segments = make([]memory.Segment, nseg)
		for i := range d.TypeMap.Segments {
			rd.uvarint64(&d.TypeMap.Segments[i].Disp, &err)
			rd.uvarint64(&d.TypeMap.Segments[i].Len, &err)
		}
	}
	rd.uvarint64(&d.TypeMap.Extent, &err)
	if err != nil {
		return ev, err
	}

	nmem, err := rd.uvarint()
	if err != nil {
		return ev, err
	}
	if nmem > 1<<20 {
		return ev, fmt.Errorf("communicator with %d members too large", nmem)
	}
	if nmem > 0 {
		d.Members = make([]int32, nmem)
		for i := range d.Members {
			rd.varint32(&d.Members[i], &err)
		}
	}
	rd.uvarint64(&d.WinBase, &err)
	rd.uvarint64(&d.WinSize, &err)
	var unit uint64
	rd.uvarint64(&unit, &err)
	d.DispUnit = uint32(unit)
	ev.Def = NewDef(d)
	return ev, err
}

// diffReaders are the stream shapes FuzzDecodeDifferential feeds both
// decoders: whole reads, one byte per Read (every window fill loops), and
// EOF delivered together with the last data.
var diffReaders = []struct {
	name string
	wrap func([]byte) io.Reader
}{
	{"bytes", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"one-byte", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
	{"data-err", func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) }},
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// sameTrace reports how two decoded traces differ, "" when they agree
// on rank and events.
func sameTrace(got, want *Trace) string {
	if (got == nil) != (want == nil) {
		return fmt.Sprintf("trace presence: got %v, want %v", got != nil, want != nil)
	}
	if got == nil {
		return ""
	}
	if got.Rank != want.Rank || len(got.Events) != len(want.Events) {
		return fmt.Sprintf("rank %d with %d events, want rank %d with %d",
			got.Rank, len(got.Events), want.Rank, len(want.Events))
	}
	for i := range want.Events {
		if !reflect.DeepEqual(got.Events[i], want.Events[i]) {
			return fmt.Sprintf("event %d:\n got %#v\nwant %#v", i, got.Events[i], want.Events[i])
		}
	}
	return ""
}

// checkDecodeDifferential runs data through the window decoder and the
// bufio reference, strictly and in salvage mode, over each reader in
// diffReaders: events, error text and SalvageResult must all agree.
func checkDecodeDifferential(t *testing.T, data []byte) {
	t.Helper()
	for _, rdr := range diffReaders {
		got, err := ReadTrace(rdr.wrap(data))
		want, werr := oracleReadTrace(rdr.wrap(data))
		if errText(err) != errText(werr) {
			t.Fatalf("%s strict: error %q, reference %q", rdr.name, errText(err), errText(werr))
		}
		if d := sameTrace(got, want); d != "" {
			t.Fatalf("%s strict: %s", rdr.name, d)
		}

		sgot, res, err := ReadTraceSalvage(rdr.wrap(data))
		swant, wres, werr := oracleReadTraceSalvage(rdr.wrap(data))
		if errText(err) != errText(werr) {
			t.Fatalf("%s salvage: error %q, reference %q", rdr.name, errText(err), errText(werr))
		}
		if res != wres {
			t.Fatalf("%s salvage: result %+v, reference %+v", rdr.name, res, wres)
		}
		if d := sameTrace(sgot, swant); d != "" {
			t.Fatalf("%s salvage: %s", rdr.name, d)
		}
	}
}

// FuzzDecodeDifferential holds the window decoder to the bufio reference
// on arbitrary streams.
func FuzzDecodeDifferential(f *testing.F) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{0, 3, 60} {
		tr := &Trace{Rank: 2, Events: sampleEvents(2, n, rng)}
		data, err := EncodeTrace(tr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)*2/3])
	}
	overflow := append([]byte(codecMagic+"\x02\x00\x00\x02\x02\x00\x00"), bytes.Repeat([]byte{0xff}, 12)...)
	f.Add(overflow)
	f.Add([]byte(codecMagic + "\x02\x01\x00\x00"))                                // header rank -1
	f.Add([]byte(codecMagic + "\x01\x04\x01\x01\x03abc\x02\x07\x01\x00\x80\x80")) // v1, mid-varint cut
	f.Add([]byte{})
	f.Add([]byte("MCC"))
	f.Fuzz(checkDecodeDifferential)
}

// TestDecodeDifferentialLargeRecords covers what the fuzzer reaches only
// slowly: records larger than the decode window — long strings, a
// datatype with the maximum segment count, a large communicator — whole
// and cut inside each of them and at the window's edge.
func TestDecodeDifferentialLargeRecords(t *testing.T) {
	segs := make([]memory.Segment, 1<<16)
	for i := range segs {
		segs[i] = memory.Segment{Disp: uint64(i) << 40, Len: 1 << 33}
	}
	members := make([]int32, 40000)
	for i := range members {
		members[i] = -int32(i) << 12
	}
	big := &Trace{Rank: 1, Events: []Event{
		{Kind: KindStore, File: strings.Repeat("x", decodeWindow+100), Func: "f"},
		{Kind: KindTypeCreate, Def: &Def{TypeID: TypeUserBase, TypeMap: memory.DataMap{Segments: segs, Extent: 1 << 50}}},
		{Kind: KindCommCreate, Def: &Def{Members: members}},
		{Kind: KindBarrier, File: strings.Repeat("y", 1<<20)},
	}}
	data, err := EncodeTrace(big)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(data), len(data) - 1, len(data) * 3 / 4, len(data) / 3, len(data) / 8,
		decodeWindow + 1, decodeWindow, decodeWindow - 1, 100} {
		checkDecodeDifferential(t, data[:cut])
	}
}

// stalledReader returns no data and no error after its prefix.
type stalledReader struct{ data []byte }

func (r *stalledReader) Read(p []byte) (int, error) {
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestDecodeStalledReader: a reader that stops making progress without an
// error fails decoding with io.ErrNoProgress, at the header or inside a
// record, instead of spinning. (The reference reader would spin here:
// io.ReadFull over bufio retries a (0, nil) read forever.)
func TestDecodeStalledReader(t *testing.T) {
	_, data := encodeSample(t, 1, 20)
	for _, cut := range []int{0, 3, len(data) / 2} {
		if _, err := ReadTrace(&stalledReader{data: data[:cut]}); !errors.Is(err, io.ErrNoProgress) {
			t.Errorf("cut %d: strict error %v, want io.ErrNoProgress", cut, err)
		}
		_, res, err := ReadTraceSalvage(&stalledReader{data: data[:cut]})
		if err == nil && !strings.Contains(res.Reason, io.ErrNoProgress.Error()) {
			t.Errorf("cut %d: salvage stopped for %q, want io.ErrNoProgress", cut, res.Reason)
		}
	}
}
