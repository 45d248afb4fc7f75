package trace

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/par"
)

// Salvage-mode decoding: recover the longest valid event prefix from a
// truncated or corrupted rank stream instead of failing outright. The
// strict ReadTrace stays the default; salvage is the degraded path the
// analyzer falls back to when strict reading fails, so that a crashed
// writer or a half-copied trace directory still yields a (partial)
// report.

// SalvageResult describes what ReadTraceSalvage recovered and why it
// stopped.
type SalvageResult struct {
	// Complete is true when the stream ended with a clean end record —
	// nothing was lost and the result equals strict ReadTrace.
	Complete bool
	// Events is the number of events recovered.
	Events int
	// Reason is the decode error that ended recovery ("" when Complete).
	Reason string
}

// ReadTraceSalvage decodes one rank stream, recovering the longest valid
// event prefix. It returns an error only when the stream header itself is
// unreadable (no rank can be attributed); any later decode error ends
// recovery and is reported in the SalvageResult instead. The returned
// trace always has dense sequence numbers and valid event kinds.
func ReadTraceSalvage(r io.Reader) (*Trace, SalvageResult, error) {
	rd := getReader(r)
	defer rd.release()
	var res SalvageResult
	rank, hint, err := rd.readHeader()
	if err != nil {
		return nil, res, err
	}
	t := &Trace{Rank: rank}
	preallocEvents(t, hint)
	if err := rd.readRecords(t, true); err != nil {
		res.Reason = err.Error()
	} else {
		res.Complete = true
	}
	res.Events = len(t.Events)
	return t, res, nil
}

// salvageMetrics are the trace layer's degradation counters.
type salvageMetrics struct {
	salvagedEvents   *obs.Counter
	truncatedStreams *obs.Counter
}

func newSalvageMetrics(reg *obs.Registry) *salvageMetrics {
	if reg == nil {
		return nil
	}
	return &salvageMetrics{
		salvagedEvents:   reg.Counter("mcchecker_trace_salvaged_events_total"),
		truncatedStreams: reg.Counter("mcchecker_trace_truncated_streams_total"),
	}
}

func (m *salvageMetrics) record(res SalvageResult) {
	if m == nil {
		return
	}
	m.salvagedEvents.Add(int64(res.Events))
	if !res.Complete {
		m.truncatedStreams.Inc()
	}
}

// ReadDirSalvage loads a trace directory in salvage mode: every readable
// prefix is recovered, unreadable or missing ranks become empty traces,
// and each degradation is described by one diagnostic note. The returned
// notes are empty exactly when the directory was read losslessly. A file
// naming a rank at or past twice the number of trace files is ignored
// with a note, so the set spans at most twice as many ranks as there are
// files. It fails only when the directory holds no usable trace files.
func ReadDirSalvage(dir string, reg *obs.Registry) (*Set, []string, error) {
	return ReadDirSalvageTraced(dir, reg, nil)
}

// ReadDirSalvageContext is ReadDirSalvage with cooperative cancellation
// checked before each rank file decodes (nil ctx never cancels) — the
// form the serving watchdog uses for directory-path jobs.
func ReadDirSalvageContext(ctx context.Context, dir string, reg *obs.Registry) (*Set, []string, error) {
	return readDirSalvage(ctx, dir, decodeWorkers(), reg, nil)
}

// ReadDirSalvageTraced is ReadDirSalvage with each rank file's salvage
// recorded as a span on tr (track "decode", one lane per worker — or per
// rank in deterministic mode). Spans are annotated with the recovered
// event count and, when the file degraded, the salvage reason. Both reg
// and tr may be nil.
func ReadDirSalvageTraced(dir string, reg *obs.Registry, tr *tracing.Recorder) (*Set, []string, error) {
	return readDirSalvage(nil, dir, decodeWorkers(), reg, tr)
}

// salvageFile is one rank file's decoded-but-unmerged salvage outcome.
type salvageFile struct {
	t       *Trace
	res     SalvageResult
	openErr error // file could not be opened
	lostErr error // header unreadable, nothing attributable
}

// readDirSalvage is the parameterized body of ReadDirSalvage. Rank files
// salvage-decode concurrently on up to `workers` goroutines (they are
// independent streams, exactly like the strict readDirWith path); the
// merge — note order, duplicate and rank-mismatch policing, metric
// recording — runs serially in name order afterward, so the returned
// set, notes, and error are identical at any worker count.
func readDirSalvage(ctx context.Context, dir string, workers int, reg *obs.Registry, tr *tracing.Recorder) (*Set, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	m := newSalvageMetrics(reg)
	names := traceFileNames(entries)
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("trace: no trace files in %s", dir)
	}
	files := make([]salvageFile, len(names))
	scope := func(i int) string { return fmt.Sprintf("rank %d (salvage)", names[i].rank) }
	err = par.RanksTraced(len(names), workers, tr, "decode", scope, func(i int, sp *tracing.Span) error {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("trace: salvage canceled: %w", err)
			}
		}
		nr := names[i]
		f, err := os.Open(filepath.Join(dir, nr.name))
		if err != nil {
			files[i].openErr = err
			sp.Annotate("outcome", "unreadable")
			return nil
		}
		t, res, err := ReadTraceSalvage(f)
		f.Close()
		if err != nil {
			files[i].lostErr = err
			sp.Annotate("outcome", "lost")
			return nil
		}
		files[i].t, files[i].res = t, res
		if !res.Complete {
			sp.Annotate("reason", res.Reason)
		}
		if sp != nil {
			sp.Annotate("events", strconv.Itoa(res.Events))
			sp.Annotate("complete", strconv.FormatBool(res.Complete))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	var notes []string
	byRank := map[int32]*Trace{}
	maxRank := int32(-1)
	// The set spans ranks 0 to the largest rank a file names, and each
	// rank no file fills costs an empty trace and a note. A file name can
	// claim any rank, so the span is capped by the files present.
	rankLimit := 2 * len(names)
	for i, nr := range names {
		if nr.rank >= rankLimit {
			notes = append(notes, fmt.Sprintf("%s: rank %d is past twice the %d trace files present; file ignored",
				nr.name, nr.rank, len(names)))
			continue
		}
		if int32(nr.rank) > maxRank {
			maxRank = int32(nr.rank)
		}
		fr := &files[i]
		switch {
		case fr.openErr != nil:
			notes = append(notes, fmt.Sprintf("%s: unreadable: %v", nr.name, fr.openErr))
			continue
		case fr.lostErr != nil:
			notes = append(notes, fmt.Sprintf("%s: lost entirely: %v", nr.name, fr.lostErr))
			continue
		case int(fr.t.Rank) != nr.rank:
			notes = append(notes, fmt.Sprintf("%s: header claims rank %d; file ignored", nr.name, fr.t.Rank))
			continue
		case byRank[fr.t.Rank] != nil:
			notes = append(notes, fmt.Sprintf("%s: duplicate of rank %d; file ignored", nr.name, fr.t.Rank))
			continue
		}
		m.record(fr.res)
		if !fr.res.Complete {
			notes = append(notes, fmt.Sprintf("%s: truncated, salvaged %d-event prefix (%s)",
				nr.name, fr.res.Events, fr.res.Reason))
		}
		byRank[fr.t.Rank] = fr.t
	}
	if len(byRank) == 0 {
		return nil, notes, fmt.Errorf("trace: no salvageable trace files in %s", dir)
	}
	set := NewSet(int(maxRank + 1))
	for r := int32(0); r <= maxRank; r++ {
		if t := byRank[r]; t != nil {
			set.Traces[r] = t
		} else {
			notes = append(notes, fmt.Sprintf("rank %d: no events recovered", r))
		}
	}
	if err := set.Validate(); err != nil {
		return nil, notes, fmt.Errorf("trace: salvaged set invalid: %w", err)
	}
	return set, notes, nil
}

// EncodeTrace renders one rank's trace in the binary stream format, with
// the event count hinted in the header so decoders preallocate.
func EncodeTrace(t *Trace) ([]byte, error) {
	var buf bytes.Buffer
	w, err := NewWriterHint(&buf, t.Rank, len(t.Events))
	if err != nil {
		return nil, err
	}
	for i := range t.Events {
		w.Emit(t.Events[i])
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ApplyTruncFaults applies a plan's trace-truncation faults to an
// in-memory set: each affected rank's trace is encoded, cut to the
// planned byte fraction, and salvage-decoded back, exactly as if the
// on-disk file had been truncated. It returns the degraded set and one
// note per truncated rank; a plan without truncation faults returns the
// set unchanged.
func ApplyTruncFaults(s *Set, plan *faults.Plan, reg *obs.Registry) (*Set, []string, error) {
	if plan == nil || len(plan.Truncs) == 0 {
		return s, nil, nil
	}
	m := newSalvageMetrics(reg)
	var notes []string
	out := &Set{Traces: make([]*Trace, len(s.Traces))}
	for i, t := range s.Traces {
		frac, ok := plan.TruncFor(int(t.Rank))
		if !ok || frac >= 1 {
			out.Traces[i] = t
			continue
		}
		data, err := EncodeTrace(t)
		if err != nil {
			return nil, notes, fmt.Errorf("trace: encoding rank %d for truncation fault: %w", t.Rank, err)
		}
		cut := faults.TruncateBytes(data, frac)
		nt, res, err := ReadTraceSalvage(bytes.NewReader(cut))
		if err != nil {
			// Even the header was cut away: the rank contributes nothing.
			nt = &Trace{Rank: t.Rank}
			res = SalvageResult{Reason: err.Error()}
		}
		m.record(res)
		notes = append(notes, fmt.Sprintf(
			"rank %d: trace truncated to %d of %d bytes, salvaged %d of %d events",
			t.Rank, len(cut), len(data), len(nt.Events), len(t.Events)))
		out.Traces[i] = nt
	}
	if err := out.Validate(); err != nil {
		return nil, notes, fmt.Errorf("trace: truncated set invalid: %w", err)
	}
	return out, notes, nil
}
