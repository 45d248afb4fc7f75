package mcchecker

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// TestReportsByteIdenticalAcrossWorkers is the contract behind the
// pipeline-parallel front end: for every bundled bug case, analyzing the
// same trace set at any worker count — and analyzing it again after a
// WriteDir → ReadDir round trip through the concurrent decoder — must
// produce byte-identical text and JSON reports.
func TestReportsByteIdenticalAcrossWorkers(t *testing.T) {
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, bc := range apps.BugCases() {
		bc := bc
		t.Run(bc.Name, func(t *testing.T) {
			ranks := bc.Ranks
			if ranks > 8 {
				ranks = 8
			}
			sink := trace.NewMemorySink()
			var rel profiler.Relevance
			if bc.RelevantBuffers != nil {
				rel = profiler.FromNames(bc.RelevantBuffers)
			}
			pr := profiler.New(sink, rel)
			if err := mpi.Run(ranks, mpi.Options{Hook: pr}, bc.Buggy); err != nil {
				t.Fatal(err)
			}
			set := sink.Set()

			analyze := func(s *trace.Set, workers int) (string, []byte) {
				opts := core.DefaultOptions()
				opts.Workers = workers
				rep, err := core.AnalyzeWith(s, opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				js, err := rep.JSON()
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return rep.String(), js
			}

			baseText, baseJSON := analyze(set, workerCounts[0])
			if baseText == "" {
				t.Fatal("empty report text")
			}
			for _, w := range workerCounts[1:] {
				text, js := analyze(set, w)
				if text != baseText {
					t.Errorf("workers=%d: report text diverged\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
						w, baseText, w, text)
				}
				if !bytes.Equal(js, baseJSON) {
					t.Errorf("workers=%d: report JSON diverged", w)
				}
			}

			// File round trip: the concurrent per-rank decode must hand the
			// analyzer the identical set.
			dir := t.TempDir()
			if err := trace.WriteDir(dir, set); err != nil {
				t.Fatal(err)
			}
			loaded, err := trace.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			text, js := analyze(loaded, runtime.GOMAXPROCS(0))
			if text != baseText {
				t.Errorf("after ReadDir: report text diverged\n--- in-memory ---\n%s\n--- decoded ---\n%s",
					baseText, text)
			}
			if !bytes.Equal(js, baseJSON) {
				t.Error("after ReadDir: report JSON diverged")
			}
		})
	}
}
