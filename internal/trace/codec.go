package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/memory"
)

// Binary stream format, per rank:
//
//	magic "MCCT" | version u8 | rank varint | count-hint uvarint (v2+)
//	repeated records:
//	  0x01 strdef  | id uvarint | len uvarint | bytes   (file-name intern)
//	  0x02 event   | field-encoded Event (see below)
//	  0x00 end
//
// Events are encoded as kind byte followed by varint fields in a fixed
// order; slices/data-maps are length-prefixed. Seq is not stored (it is the
// record index); Rank is stored once in the header.
//
// Version 2 adds the count hint: the expected event count (0 when the
// writer streams and cannot know it), letting readers preallocate the
// event slice in one shot. Readers accept both versions; the hint is
// advisory and clamped, never trusted.

const (
	codecMagic     = "MCCT"
	codecVersionV1 = 1
	codecVersion   = 2

	recEnd    = 0x00
	recStrDef = 0x01
	recEvent  = 0x02

	// maxPreallocEvents caps how many events the count hint may
	// preallocate, so a hostile header cannot force a huge allocation.
	maxPreallocEvents = 1 << 16
)

// Writer encodes one rank's events to an io.Writer. Each record, together
// with any string definitions it needs, is encoded into one reused buffer
// and handed to the bufio.Writer in a single write, so emitting an event
// whose strings are already interned does not allocate.
type Writer struct {
	w       *bufio.Writer
	rank    int32
	nextSeq int64
	strs    map[string]uint64
	buf     []byte
	err     error
}

// NewWriter writes the stream header for rank and returns the Writer.
// The count hint is written as 0 (unknown): a streaming writer cannot
// know how many events will follow. Use NewWriterHint when the event
// count is known up front (whole-trace encoders), so readers can
// preallocate.
func NewWriter(w io.Writer, rank int32) (*Writer, error) {
	return NewWriterHint(w, rank, 0)
}

// NewWriterHint is NewWriter with an explicit event-count hint in the
// stream header. events <= 0 writes 0 ("unknown"); the hint is advisory
// only — emitting more or fewer events than hinted is legal.
func NewWriterHint(w io.Writer, rank int32, events int) (*Writer, error) {
	if events < 0 {
		events = 0
	}
	buf := make([]byte, 0, 256)
	buf = append(buf, codecMagic...)
	buf = append(buf, codecVersion)
	buf = binary.AppendVarint(buf, int64(rank))
	buf = binary.AppendUvarint(buf, uint64(events))
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(buf); err != nil {
		return nil, err
	}
	return &Writer{w: bw, rank: rank, strs: map[string]uint64{"": 0}, buf: buf[:0]}, nil
}

// appendString returns s's intern id, appending its string-definition
// record to b when s is new to the stream.
func (w *Writer) appendString(b []byte, s string) ([]byte, uint64) {
	if id, ok := w.strs[s]; ok {
		return b, id
	}
	id := uint64(len(w.strs))
	w.strs[s] = id
	b = append(b, recStrDef)
	b = binary.AppendUvarint(b, id)
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...), id
}

// Emit implements Sink: it appends ev to the stream. The event's Rank must
// match the writer's rank and Seq must be the next dense sequence number;
// a zero Seq/Rank event is stamped automatically.
func (w *Writer) Emit(ev Event) {
	if w.err != nil {
		return
	}
	if ev.Rank == 0 && ev.Seq == 0 {
		ev.Rank, ev.Seq = w.rank, w.nextSeq
	}
	if ev.Rank != w.rank || ev.Seq != w.nextSeq {
		w.err = fmt.Errorf("trace: event %v out of order for rank %d writer (want seq %d)",
			ev.ID(), w.rank, w.nextSeq)
		return
	}
	w.nextSeq++

	b, fileID := w.appendString(w.buf[:0], ev.File)
	b, funcID := w.appendString(b, ev.Func)
	b = append(b, recEvent, byte(ev.Kind))
	b = binary.AppendUvarint(b, fileID)
	b = binary.AppendUvarint(b, funcID)
	b = binary.AppendVarint(b, int64(ev.Line))
	b = binary.AppendVarint(b, int64(ev.Comm))
	b = binary.AppendVarint(b, int64(ev.Peer))
	b = binary.AppendVarint(b, int64(ev.Tag))
	b = binary.AppendVarint(b, int64(ev.Req))
	b = binary.AppendVarint(b, int64(ev.Win))
	b = binary.AppendVarint(b, int64(ev.Target))
	b = append(b, byte(ev.Lock), byte(ev.AccOp))
	b = binary.AppendUvarint(b, ev.OriginAddr)
	b = binary.AppendVarint(b, int64(ev.OriginType))
	b = binary.AppendVarint(b, int64(ev.OriginCount))
	b = binary.AppendUvarint(b, ev.TargetDisp)
	b = binary.AppendVarint(b, int64(ev.TargetType))
	b = binary.AppendVarint(b, int64(ev.TargetCount))
	b = binary.AppendUvarint(b, ev.ResultAddr)
	b = binary.AppendVarint(b, int64(ev.ResultType))
	b = binary.AppendVarint(b, int64(ev.ResultCount))
	b = binary.AppendVarint(b, int64(ev.Assert))
	b = binary.AppendUvarint(b, ev.Addr)
	b = binary.AppendUvarint(b, ev.Size)
	d := ev.Payload()
	b = binary.AppendVarint(b, int64(d.TypeID))
	b = binary.AppendUvarint(b, uint64(len(d.TypeMap.Segments)))
	for _, s := range d.TypeMap.Segments {
		b = binary.AppendUvarint(b, s.Disp)
		b = binary.AppendUvarint(b, s.Len)
	}
	b = binary.AppendUvarint(b, d.TypeMap.Extent)
	b = binary.AppendUvarint(b, uint64(len(d.Members)))
	for _, m := range d.Members {
		b = binary.AppendVarint(b, int64(m))
	}
	b = binary.AppendUvarint(b, d.WinBase)
	b = binary.AppendUvarint(b, d.WinSize)
	b = binary.AppendUvarint(b, uint64(d.DispUnit))
	w.buf = b
	_, w.err = w.w.Write(b)
}

// Close terminates and flushes the stream.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.err = w.w.WriteByte(recEnd); w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Err returns the first write error, if any.
func (w *Writer) Err() error { return w.err }

// The decoder reads each field in place from a refillable byte window
// over the stream instead of one byte at a time through an interface.
// fill(n) runs before each record, string payload, datatype segment and
// communicator member, and makes n bytes resident unless the stream ends
// first; the field decoders below then index the window directly, and
// the window running dry inside a record means the stream ended there.
// A sentinel continuation byte always follows the resident bytes, so a
// varint's one-byte fast path needs no end check of its own and inlines.
// The first decode error is sticky, so a record's fields decode in one
// straight pass and the record is checked once at its end.

const (
	// decodeWindow is the decode window's size, the sentinel's byte
	// included, so it allocates exactly one 64 KiB block; a string payload
	// larger than it grows the window for the rest of the stream.
	decodeWindow = 1 << 16
	// sentinel follows the window's resident bytes: as a varint
	// continuation byte it sends the fast path to the checked slow path.
	sentinel = 0x80

	maxVarint = binary.MaxVarintLen64
	// maxRecordHead bounds a record up to an event's segment count: the
	// tag, the kind byte, two string ids, 20 varint fields, the lock and
	// accumulate-op bytes, and the count itself. A string definition's
	// tag, id and length fit in it too.
	maxRecordHead = 2 + 2*maxVarint + 20*maxVarint + 2 + maxVarint
	// maxHeader bounds the stream header: magic, version, rank and hint.
	maxHeader = len(codecMagic) + 1 + 2*maxVarint
)

// errVarintOverflow is encoding/binary's overflow error, so malformed
// varints fail with the same error value the bufio-based reader gave.
var errVarintOverflow = func() error {
	_, err := binary.ReadUvarint(bytes.NewReader(bytes.Repeat([]byte{0xff}, maxVarint)))
	return err
}()

// reader is the per-stream decode context: the window, the string intern
// table and the sticky decode error. Contexts are recycled through
// readerPool, so decoding a trace directory does not allocate a window
// and an intern table per rank file.
type reader struct {
	r    io.Reader
	buf  []byte // the window; buf[pos:end] is read but not yet decoded, buf[end] is the sentinel
	pos  int
	end  int
	rerr error // the stream's read error, seen once the window runs dry
	err  error // the first decode error
	strs []string
}

var readerPool = sync.Pool{New: func() any { return newReader() }}

func newReader() *reader {
	rd := &reader{buf: make([]byte, decodeWindow), strs: []string{""}}
	rd.buf[0] = sentinel
	return rd
}

// getReader returns a recycled decode context reading r.
func getReader(r io.Reader) *reader {
	rd := readerPool.Get().(*reader)
	rd.r = r
	return rd
}

// release recycles a decode context.
func (rd *reader) release() {
	rd.reset()
	readerPool.Put(rd)
}

// reset readies a context for its next stream, keeping the window and
// the intern table's storage. The interned strings handed out to decoded
// events are immutable Go strings; dropping the table references here
// cannot invalidate them.
func (rd *reader) reset() {
	clear(rd.strs[1:]) // do not pin decoded file/func names beyond this stream
	*rd = reader{buf: rd.buf, strs: rd.strs[:1]}
	rd.buf[0] = sentinel
}

// fill makes at least n undecoded bytes resident in the window, reading
// from the stream as needed. Fewer remain only when the stream returned
// an error, which rerr then holds.
func (rd *reader) fill(n int) {
	if rd.end-rd.pos < n && rd.rerr == nil {
		rd.refill(n)
	}
}

func (rd *reader) refill(n int) {
	if n >= len(rd.buf) {
		buf := make([]byte, n+1)
		rd.end = copy(buf, rd.buf[rd.pos:rd.end])
		rd.buf = buf
	} else {
		rd.end = copy(rd.buf, rd.buf[rd.pos:rd.end])
	}
	rd.pos = 0
	for empty := 0; rd.end < n && rd.rerr == nil; {
		m, err := rd.r.Read(rd.buf[rd.end : len(rd.buf)-1])
		rd.end += m
		if err != nil {
			rd.rerr = err
		} else if m > 0 {
			empty = 0
		} else if empty++; empty == 100 {
			rd.rerr = io.ErrNoProgress
		}
	}
	rd.buf[rd.end] = sentinel
}

// short is the error for a field the stream ended in after got of the
// field's bytes: the read error itself when got is 0, and an EOF inside
// the field turned into io.ErrUnexpectedEOF, as io.ReadFull and
// binary.ReadUvarint report them.
func (rd *reader) short(got int) error {
	if got > 0 && rd.rerr == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return rd.rerr
}

func (rd *reader) fail(err error) {
	if rd.err == nil {
		rd.err = err
	}
}

func (rd *reader) u8() byte {
	if rd.pos < rd.end {
		b := rd.buf[rd.pos]
		rd.pos++
		return b
	}
	rd.fail(rd.short(0))
	return 0
}

// uvarint decodes an unsigned varint; one-byte values take the inlined
// fast path, which the sentinel stops at the end of the resident bytes.
func (rd *reader) uvarint() uint64 {
	if b := rd.buf[rd.pos]; b < 0x80 {
		rd.pos++
		return uint64(b)
	}
	return rd.uvarintSlow()
}

// uvarintSlow is binary.ReadUvarint over the window.
func (rd *reader) uvarintSlow() uint64 {
	var x uint64
	var s uint
	for i := 0; i < maxVarint; i++ {
		if rd.pos == rd.end {
			rd.fail(rd.short(i))
			return 0
		}
		b := rd.buf[rd.pos]
		rd.pos++
		if b < 0x80 {
			if i == maxVarint-1 && b > 1 {
				break
			}
			return x | uint64(b)<<s
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	rd.fail(errVarintOverflow)
	return 0
}

// varint decodes a zigzag-encoded signed varint.
func (rd *reader) varint() int64 {
	ux := rd.uvarint()
	return int64(ux>>1) ^ -int64(ux&1)
}

// int32 zigzag-decodes ux, a signed varint field's raw value, which must
// fit an int32: it does exactly when ux < 1<<32. It inlines, so a signed
// field decodes as rd.int32(rd.uvarint()) with no call on the fast path.
func (rd *reader) int32(ux uint64) int32 {
	if ux>>32 != 0 {
		rd.overflow(ux)
	}
	return int32(ux>>1) ^ -int32(ux&1)
}

func (rd *reader) overflow(ux uint64) {
	rd.fail(fmt.Errorf("trace: field value %d overflows int32", int64(ux>>1)^-int64(ux&1)))
}

// str decodes a string id and returns its interned string.
func (rd *reader) str() string {
	id := rd.uvarint()
	if id >= uint64(len(rd.strs)) {
		rd.fail(fmt.Errorf("undefined string id %d", id))
		return ""
	}
	return rd.strs[id]
}

// readHeader parses the stream header (magic, version, rank, and the v2
// count hint) shared by the strict and salvage decoders. The hint is 0
// for v1 streams and for v2 writers that streamed without knowing their
// event count.
func (rd *reader) readHeader() (rank int32, hint uint64, err error) {
	const fixed = len(codecMagic) + 1
	rd.fill(maxHeader)
	if got := rd.end - rd.pos; got < fixed {
		return 0, 0, fmt.Errorf("trace: reading header: %w", rd.short(got))
	}
	hdr := rd.buf[rd.pos : rd.pos+fixed]
	rd.pos += fixed
	if string(hdr[:len(codecMagic)]) != codecMagic {
		return 0, 0, errors.New("trace: bad magic")
	}
	version := hdr[len(codecMagic)]
	if version != codecVersionV1 && version != codecVersion {
		return 0, 0, fmt.Errorf("trace: unsupported version %d", version)
	}
	rank64 := rd.varint()
	if rd.err != nil {
		return 0, 0, fmt.Errorf("trace: reading rank: %w", rd.err)
	}
	if rank64 < 0 || rank64 > math.MaxInt32 {
		return 0, 0, fmt.Errorf("trace: header rank %d out of range", rank64)
	}
	if version >= codecVersion {
		if hint = rd.uvarint(); rd.err != nil {
			return 0, 0, fmt.Errorf("trace: reading event-count hint: %w", rd.err)
		}
	}
	return int32(rank64), hint, nil
}

// preallocEvents sizes a trace's event slice from the header hint,
// clamped against hostile or mistaken headers.
func preallocEvents(t *Trace, hint uint64) {
	if hint == 0 {
		return
	}
	if hint > maxPreallocEvents {
		hint = maxPreallocEvents
	}
	t.Events = make([]Event, 0, hint)
}

// readStrDef decodes one string-definition record into the intern table.
func (rd *reader) readStrDef() error {
	id := rd.uvarint()
	n := rd.uvarint()
	if rd.err != nil {
		return rd.err
	}
	if n > 1<<20 {
		return fmt.Errorf("trace: string of %d bytes too long", n)
	}
	rd.fill(int(n))
	if got := rd.end - rd.pos; got < int(n) {
		return rd.short(got)
	}
	b := rd.buf[rd.pos : rd.pos+int(n)]
	rd.pos += int(n)
	if id != uint64(len(rd.strs)) {
		return fmt.Errorf("trace: string id %d out of order", id)
	}
	rd.strs = append(rd.strs, string(b))
	return nil
}

// ReadTrace decodes one rank stream produced by Writer (codec version 1
// or 2).
func ReadTrace(r io.Reader) (*Trace, error) {
	rd := getReader(r)
	defer rd.release()
	rank, hint, err := rd.readHeader()
	if err != nil {
		return nil, err
	}
	t := &Trace{Rank: rank}
	preallocEvents(t, hint)
	if err := rd.readRecords(t, false); err != nil {
		return nil, err
	}
	return t, nil
}

// readRecords decodes records into t until the end record and returns
// nil, or until the first bad record and returns why, worded for
// ReadTrace or, with salvage set, as a SalvageResult reason. t keeps
// every event decoded before the bad record.
func (rd *reader) readRecords(t *Trace, salvage bool) error {
	for {
		rd.fill(maxRecordHead)
		if rd.pos == rd.end {
			if salvage {
				return fmt.Errorf("stream ended without end record: %v", rd.rerr)
			}
			return fmt.Errorf("trace: reading record tag: %w", rd.rerr)
		}
		tag := rd.buf[rd.pos]
		rd.pos++
		switch tag {
		case recEnd:
			return nil
		case recStrDef:
			if err := rd.readStrDef(); err != nil {
				if salvage {
					return fmt.Errorf("bad string definition: %v", err)
				}
				return err
			}
		case recEvent:
			n := len(t.Events)
			if n < cap(t.Events) {
				t.Events = t.Events[:n+1] // spare capacity is zeroed
			} else {
				t.Events = append(t.Events, Event{})
			}
			ev := &t.Events[n]
			ev.Rank, ev.Seq = t.Rank, int64(n)
			if rd.readEvent(ev); rd.err != nil {
				t.Events[n] = Event{}
				t.Events = t.Events[:n]
				if salvage {
					return fmt.Errorf("event %d undecodable: %v", n, rd.err)
				}
				return fmt.Errorf("trace: rank %d event %d: %w", t.Rank, n, rd.err)
			}
		default:
			if salvage {
				return fmt.Errorf("unknown record tag %#x", tag)
			}
			return fmt.Errorf("trace: unknown record tag %#x", tag)
		}
	}
}

// readEvent decodes an event record's fields into ev, whose Rank and Seq
// are already set. Errors land in rd.err.
func (rd *reader) readEvent(ev *Event) {
	kb := rd.u8()
	if ev.Kind = Kind(kb); ev.Kind == KindInvalid || ev.Kind >= kindMax {
		rd.fail(fmt.Errorf("invalid kind %d", kb))
	}
	ev.File = rd.str()
	ev.Func = rd.str()
	ev.Line = rd.int32(rd.uvarint())
	ev.Comm = rd.int32(rd.uvarint())
	ev.Peer = rd.int32(rd.uvarint())
	ev.Tag = rd.int32(rd.uvarint())
	ev.Req = rd.int32(rd.uvarint())
	ev.Win = rd.int32(rd.uvarint())
	ev.Target = rd.int32(rd.uvarint())
	ev.Lock = LockType(rd.u8())
	ev.AccOp = AccOp(rd.u8())
	ev.OriginAddr = rd.uvarint()
	ev.OriginType = rd.int32(rd.uvarint())
	ev.OriginCount = rd.int32(rd.uvarint())
	ev.TargetDisp = rd.uvarint()
	ev.TargetType = rd.int32(rd.uvarint())
	ev.TargetCount = rd.int32(rd.uvarint())
	ev.ResultAddr = rd.uvarint()
	ev.ResultType = rd.int32(rd.uvarint())
	ev.ResultCount = rd.int32(rd.uvarint())
	ev.Assert = rd.int32(rd.uvarint())
	ev.Addr = rd.uvarint()
	ev.Size = rd.uvarint()
	rd.readDef(ev)
}

// readDef decodes an event record's definition payload and attaches it
// to ev only when some field is nonzero, so loads, stores and RMA
// operations, which carry none, cost no allocation.
func (rd *reader) readDef(ev *Event) {
	var d Def
	d.TypeID = rd.int32(rd.uvarint())

	if nseg := rd.uvarint(); nseg > 1<<16 {
		rd.fail(fmt.Errorf("datatype with %d segments too large", nseg))
	} else if nseg > 0 && rd.err == nil {
		d.TypeMap.Segments = make([]memory.Segment, nseg)
		for i := range d.TypeMap.Segments {
			rd.fill(2 * maxVarint)
			d.TypeMap.Segments[i] = memory.Segment{Disp: rd.uvarint(), Len: rd.uvarint()}
		}
	}
	rd.fill(2 * maxVarint)
	d.TypeMap.Extent = rd.uvarint()

	if nmem := rd.uvarint(); nmem > 1<<20 {
		rd.fail(fmt.Errorf("communicator with %d members too large", nmem))
	} else if nmem > 0 && rd.err == nil {
		d.Members = make([]int32, nmem)
		for i := range d.Members {
			rd.fill(maxVarint)
			d.Members[i] = rd.int32(rd.uvarint())
		}
	}
	rd.fill(3 * maxVarint)
	d.WinBase = rd.uvarint()
	d.WinSize = rd.uvarint()
	d.DispUnit = uint32(rd.uvarint())
	ev.Def = NewDef(d)
}
