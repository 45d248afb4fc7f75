package core_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// maxFuzzStreams caps the rank streams one fuzz input may frame: the
// seeds hold at most 8, and each stream's header may preallocate events.
const maxFuzzStreams = 8

// encodeCase runs one registry program under the profiler and frames its
// encoded rank streams as FuzzAnalyzeTrace reads them: each stream after
// its length as a uvarint.
func encodeCase(f *testing.F, bc apps.BugCase, body func(*mpi.Proc) error) []byte {
	f.Helper()
	var rel profiler.Relevance
	if bc.RelevantBuffers != nil {
		rel = profiler.FromNames(bc.RelevantBuffers)
	}
	sink := trace.NewMemorySink()
	if err := mpi.Run(min(bc.Ranks, maxFuzzStreams), mpi.Options{Hook: profiler.New(sink, rel)}, body); err != nil {
		f.Fatalf("%s: %v", bc.Name, err)
	}
	var data []byte
	for _, t := range sink.Set().Traces {
		enc, err := trace.EncodeTrace(t)
		if err != nil {
			f.Fatalf("%s: %v", bc.Name, err)
		}
		data = binary.AppendUvarint(data, uint64(len(enc)))
		data = append(data, enc...)
	}
	return data
}

// FuzzAnalyzeTrace feeds mutated traces of the registry programs down
// the path an uploaded or on-disk trace takes: salvage decode of every
// rank stream, Merge, the analysis (degraded when a stream was cut
// short, as `mcchecker analyze` and serve run it) and both renderings.
// A report or an error are the only allowed outcomes: a panic is a
// crasher, and so is running out of memory.
func FuzzAnalyzeTrace(f *testing.F) {
	for _, bc := range apps.AllCases() {
		f.Add(encodeCase(f, bc, bc.Buggy))
		f.Add(encodeCase(f, bc, bc.Fixed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var parts []*trace.Trace
		var notes []string
		for len(data) > 0 && len(parts) < maxFuzzStreams {
			n, k := binary.Uvarint(data)
			if k <= 0 || n > uint64(len(data)-k) {
				break
			}
			stream := data[k : k+int(n)]
			data = data[k+int(n):]
			tr, res, err := trace.ReadTraceSalvage(bytes.NewReader(stream))
			if err != nil {
				return
			}
			if !res.Complete {
				notes = append(notes, res.Reason)
			}
			parts = append(parts, tr)
		}
		set, err := trace.Merge(parts...)
		if err != nil {
			return
		}
		rep, err := core.AnalyzeDegraded(set, core.DefaultOptions(), notes)
		if err != nil {
			return
		}
		_ = rep.String()
		if _, err := rep.JSON(); err != nil {
			t.Fatalf("report does not render as JSON: %v", err)
		}
	})
}
