package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// outcome is what one check produced, gathered outside its timed interval.
type outcome struct {
	elapsed    time.Duration
	events     int    // trace events checked
	traceBytes int    // encoded trace bytes
	err        error  // the check failed to produce a report
	wrong      string // the check produced a report that is not correct
	missed     bool   // a planted bug went unreported
	falseAlarm bool   // a clean input was reported buggy

	// Offline and hot-region checks.
	rendered
	profiled  int // events the profiler recorded (0 without a profiled run)
	loadstore int // load/store events among them

	// Serve checks.
	status     string
	degraded   bool
	violations int
	shed       int // 1 when the POST was shed with a 429
}

// offlineCheck runs one program through the paper's offline flow:
// (native run,) profiled run, WriteDir, ReadDir, analysis, then text and
// JSON rendering. dir is the program's own trace directory. With tr set,
// every layer call gets a span whose parent is the check span, and the
// analysis runs stage by stage (see analyzeLayered).
func offlineCheck(p *program, native bool, dir string, tr *tracer) outcome {
	var out outcome
	check := tr.begin("check", 0, p.name)
	start := time.Now()
	if native {
		id := tr.begin("mpi.native", check, "")
		err := mpi.Run(p.ranks, mpi.Options{}, p.body)
		tr.finish(id)
		if err != nil {
			out.err = fmt.Errorf("%s: native run: %w", p.name, err)
			return out
		}
	}
	id := tr.begin("profiler.run", check, "")
	set, err := profiledRun(*p)
	tr.finish(id)
	if err != nil {
		out.err = err
		return out
	}
	id = tr.begin("trace.write", check, "")
	err = trace.WriteDir(dir, set)
	tr.finish(id)
	if err != nil {
		out.err = fmt.Errorf("%s: %w", p.name, err)
		return out
	}
	id = tr.begin("trace.read", check, "")
	got, err := trace.ReadDir(dir)
	tr.finish(id)
	if err != nil {
		out.err = fmt.Errorf("%s: %w", p.name, err)
		return out
	}
	out.rendered, err = analyzeAndRender(got, tr, check)
	out.elapsed = time.Since(start)
	tr.finish(check)
	if err != nil {
		out.err = fmt.Errorf("%s: %w", p.name, err)
		return out
	}
	if tr != nil {
		out.wrong = matchesAnalyze(got, out.rendered)
	}
	out.events = set.TotalEvents()
	out.profiled = out.events
	for _, t := range set.Traces {
		for i := range t.Events {
			if t.Events[i].Kind.IsLocalAccess() {
				out.loadstore++
			}
		}
	}
	if out.traceBytes, err = dirBytes(dir); err != nil {
		out.err = err
	}
	return out
}

// hotCheck decodes the encoded synthetic region, analyzes it and renders
// the report.
func hotCheck(in *hotInput, tr *tracer) outcome {
	var out outcome
	check := tr.begin("check", 0, "hot-region")
	start := time.Now()
	id := tr.begin("trace.read", check, "")
	parts := make([]*trace.Trace, len(in.ranks))
	var err error
	for i, b := range in.ranks {
		if parts[i], err = trace.ReadTrace(bytes.NewReader(b)); err != nil {
			break
		}
	}
	var set *trace.Set
	if err == nil {
		set, err = trace.Merge(parts...)
	}
	tr.finish(id)
	if err != nil {
		out.err = fmt.Errorf("hot-region: decode: %w", err)
		return out
	}
	out.rendered, err = analyzeAndRender(set, tr, check)
	out.elapsed = time.Since(start)
	tr.finish(check)
	if err != nil {
		out.err = fmt.Errorf("hot-region: %w", err)
		return out
	}
	if tr != nil {
		out.wrong = matchesAnalyze(set, out.rendered)
	}
	out.events = in.events
	for _, b := range in.ranks {
		out.traceBytes += len(b)
	}
	return out
}

// rendered is an analysis report with its text and JSON renderings.
// dagRegions and epochs are set by traced (layer-by-layer) checks only.
type rendered struct {
	rep        *core.Report
	text       string
	js         []byte
	dagRegions int
	epochs     int
}

func (r rendered) size() int { return len(r.text) + len(r.js) }

// analyzeAndRender analyzes set and renders the report as text and JSON.
// Untraced it calls core.Analyze; traced it runs analyzeLayered.
func analyzeAndRender(set *trace.Set, tr *tracer, check int) (rendered, error) {
	var r rendered
	var err error
	if tr == nil {
		r.rep, err = core.Analyze(set)
	} else {
		r, err = analyzeLayered(set, tr, check)
	}
	if err != nil {
		return r, err
	}
	id := tr.begin("core.render", check, "")
	r.text = r.rep.String()
	r.js, err = r.rep.JSON()
	tr.finish(id)
	return r, err
}

// matchesAnalyze requires a traced check's stitched report to render
// byte-identically to core.Analyze's on the same set, so the layer
// numbers describe the same program the untraced run times. It returns
// what differs, or "" when nothing does.
func matchesAnalyze(set *trace.Set, r rendered) string {
	ref, err := core.Analyze(set)
	if err != nil {
		return fmt.Sprintf("core.Analyze failed where the stitched pipeline did not: %v", err)
	}
	refJS, err := ref.JSON()
	if err != nil {
		return fmt.Sprintf("rendering core.Analyze's report: %v", err)
	}
	if ref.String() != r.text || !bytes.Equal(refJS, r.js) {
		return fmt.Sprintf("stitched report differs from core.Analyze's:\n%s--- core.Analyze:\n%s", r.text, ref.String())
	}
	return ""
}

// analyzeLayered is core.Analyze taken apart at its public layer
// boundaries, one span per call: model.Build, match.Run, dag.Build,
// core.ExtractEpochs, then one analyzer with intra-epoch detection only
// and one with cross-process detection only, whose reports are merged.
func analyzeLayered(set *trace.Set, tr *tracer, check int) (rendered, error) {
	var r rendered
	id := tr.begin("model.build", check, "")
	m, err := model.Build(set)
	tr.finish(id)
	if err != nil {
		return r, err
	}
	id = tr.begin("match.run", check, "")
	ms, err := match.Run(m)
	tr.finish(id)
	if err != nil {
		return r, err
	}
	id = tr.begin("dag.build", check, "")
	d, err := dag.Build(m, ms)
	tr.finish(id)
	if err != nil {
		return r, err
	}
	r.dagRegions = len(d.Regions())
	id = tr.begin("core.epochs", check, "")
	epochs, opEpoch, err := core.ExtractEpochs(m)
	tr.finish(id)
	if err != nil {
		return r, err
	}
	r.epochs = len(epochs)
	intraOpts, crossOpts := core.DefaultOptions(), core.DefaultOptions()
	intraOpts.CrossProcess = false
	crossOpts.IntraEpoch = false
	id = tr.begin("core.detect_intra", check, "")
	intra, err := core.NewAnalyzer(m, d, epochs, opEpoch, intraOpts).Run()
	tr.finish(id)
	if err != nil {
		return r, err
	}
	id = tr.begin("core.detect_cross", check, "")
	cross, err := core.NewAnalyzer(m, d, epochs, opEpoch, crossOpts).Run()
	tr.finish(id)
	if err != nil {
		return r, err
	}
	r.rep = &core.Report{
		Violations:     append(intra.Violations, cross.Violations...),
		EventsAnalyzed: intra.EventsAnalyzed,
		Regions:        cross.Regions,
		EpochsChecked:  intra.EpochsChecked,
	}
	r.rep.Sort()
	return r, nil
}

// dirBytes sums the sizes of the trace files in dir.
func dirBytes(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range entries {
		fi, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		n += int(fi.Size())
	}
	return n, nil
}
