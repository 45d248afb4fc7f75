package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// tally accumulates the outcomes of the checks of one measurement.
type tally struct {
	mu sync.Mutex

	samples   []float64 // ms per successful check
	attempted int
	failed    int
	errs      []string // first few failures
	wrong     []string // first few wrong verdicts
	nWrong    int

	events, traceBytes  int64
	missed, falseAlarms int
	profiled, loadstore int64
	dagRegions, epochs  int64
	regions, violations int64
	folded, reportBytes int64
	degraded, shed      int64
	writeBytes          int64
}

const keepMessages = 5

func (t *tally) record(out outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.shed += int64(out.shed)
	if out.err != nil {
		t.failed++
		if len(t.errs) < keepMessages {
			t.errs = append(t.errs, out.err.Error())
		}
		return
	}
	if out.wrong != "" {
		t.nWrong++
		if len(t.wrong) < keepMessages {
			t.wrong = append(t.wrong, out.wrong)
		}
	}
	t.samples = append(t.samples, float64(out.elapsed.Nanoseconds())/1e6)
	t.events += int64(out.events)
	t.traceBytes += int64(out.traceBytes)
	if out.missed {
		t.missed++
	}
	if out.falseAlarm {
		t.falseAlarms++
	}
	t.profiled += int64(out.profiled)
	t.loadstore += int64(out.loadstore)
	if out.profiled > 0 {
		t.writeBytes += int64(out.traceBytes)
	}
	t.dagRegions += int64(out.dagRegions)
	t.epochs += int64(out.epochs)
	if out.degraded {
		t.degraded++
	}
	if rep := out.rep; rep != nil {
		t.regions += int64(rep.Regions)
		t.violations += int64(len(rep.Violations))
		for _, v := range rep.Violations {
			t.folded += int64(v.Count)
		}
		t.reportBytes += int64(out.size())
	}
}

// blockChecks is the fewest checks a block of whole passes holds. Every
// per-run statistic is computed per block and the run reports the median
// over its blocks, so a burst of load from elsewhere on the host moves
// one block rather than the run. The tail of a block of n checks is the
// highest percentile with minBeyond checks beyond it; fixing the block
// size fixes that percentile (p90.9 at 110 checks) however fast the
// program runs.
const blockChecks = 110

// counters are what a measurement accumulates over its passes.
type counters struct {
	wall  time.Duration // summed time of the passes
	cpu   time.Duration // process CPU time used by the passes
	alloc uint64        // heap bytes allocated during the passes
}

// block marks where one block of passes ends: the number of checks timed
// and the events and counters accumulated up to that point.
type block struct {
	samples int
	events  int64
	counters
}

// blockStats is one block's share of a measurement.
type blockStats struct {
	samples []float64
	events  int64
	counters
}

// measurement is a series of timed whole passes.
type measurement struct {
	*tally
	passes int
	counters
	blocks []block
	spans  []span // traced measurements only
}

// measure times whole passes of w for dur. With tr set it alternates
// untraced and traced passes, so load from elsewhere on the host drifts
// over both alike, and returns the untraced and the traced measurement.
func measure(w workload, dur time.Duration, tr *tracer) []measurement {
	runs := []*measurement{{tally: &tally{}}}
	tracers := []*tracer{nil}
	if tr != nil {
		runs = append(runs, &measurement{tally: &tally{}})
		tracers = append(tracers, tr)
	}
	runtime.GC()
	start := time.Now()
	for !done(runs, time.Since(start) >= dur) {
		for i, r := range runs {
			a0, c0, t0 := heapAllocs(), cpuTime(), time.Now()
			w.pass(tracers[i], r.tally)
			r.wall += time.Since(t0)
			r.cpu += cpuTime() - c0
			r.alloc += heapAllocs() - a0
			r.passes++
			r.closeBlock(false)
		}
	}
	out := make([]measurement, len(runs))
	for i, r := range runs {
		r.closeBlock(true)
		out[i] = *r
	}
	if tr != nil {
		out[1].spans = tr.snapshot()
	}
	return out
}

// done reports whether the time is up with every measurement holding
// enough checks for a tail, or whether nothing works at all.
func done(runs []*measurement, timeUp bool) bool {
	for _, r := range runs {
		if r.failed > 0 && len(r.samples) == 0 {
			return true
		}
		if len(r.samples) <= minBeyond {
			return false
		}
	}
	return timeUp
}

// closeBlock ends the current block once it holds blockChecks checks;
// final folds a short last block into the one before it.
func (m *measurement) closeBlock(final bool) {
	prev := block{}
	if n := len(m.blocks); n > 0 {
		prev = m.blocks[n-1]
	}
	size := len(m.samples) - prev.samples
	if size == 0 || (!final && size < blockChecks) {
		return
	}
	b := block{samples: len(m.samples), events: m.events, counters: m.counters}
	if final && size < blockChecks && len(m.blocks) > 0 {
		m.blocks[len(m.blocks)-1] = b
		return
	}
	m.blocks = append(m.blocks, b)
}

// perBlock returns f applied to each block.
func (m *measurement) perBlock(f func(b blockStats) float64) []float64 {
	var out []float64
	prev := block{}
	for _, b := range m.blocks {
		out = append(out, f(blockStats{
			samples: m.samples[prev.samples:b.samples],
			events:  b.events - prev.events,
			counters: counters{
				wall:  b.wall - prev.wall,
				cpu:   b.cpu - prev.cpu,
				alloc: b.alloc - prev.alloc,
			},
		}))
		prev = b
	}
	return out
}

// p50 is the median over blocks of each block's median check time.
func (m *measurement) p50() float64 {
	return median(m.perBlock(func(b blockStats) float64 { return median(b.samples) }))
}

// tail is the median over blocks of each block's tail check time, with the
// median percentile it stands at.
func (m *measurement) tail() (value, pct float64) {
	vals := m.perBlock(func(b blockStats) float64 { v, _, _ := tailOf(b.samples); return v })
	pcts := m.perBlock(func(b blockStats) float64 { _, p, _ := tailOf(b.samples); return p })
	return median(vals), median(pcts)
}

// endToEndValues computes the metrics of an untraced run. The times are
// process CPU times, which leave out the time the host hands the CPUs to
// other machines.
func endToEndValues(m measurement, setup float64) map[string]float64 {
	return map[string]float64{
		"cpu_ms_per_check": median(m.perBlock(func(b blockStats) float64 {
			return b.cpu.Seconds() * 1e3 / float64(len(b.samples))
		})),
		"alloc_bytes_per_event": median(m.perBlock(func(b blockStats) float64 {
			return float64(b.alloc) / float64(b.events)
		})),
		"trace_bytes_per_event": float64(m.traceBytes) / float64(m.events),
		"setup_s":               setup,
	}
}

// wallValues computes the wall-clock timings of a measurement.
func wallValues(m measurement) map[string]float64 {
	tail, _ := m.tail()
	return map[string]float64{
		"check_ms_p50":  m.p50(),
		"check_ms_tail": tail,
		"events_per_s": median(m.perBlock(func(b blockStats) float64 {
			return float64(b.events) / b.wall.Seconds()
		})),
	}
}

// perLayerValues computes the traced metrics from a traced measurement
// and the untraced one taken just before it.
func perLayerValues(base, traced measurement) map[string]float64 {
	vals := wallValues(base)
	lt := totalsByName(traced.spans)
	checks := float64(len(traced.samples))
	passes := float64(traced.passes)
	ms := func(name string) float64 { return lt.dur[name].Seconds() * 1e3 / checks }
	bytes := func(name string) float64 { return float64(lt.alloc[name]) / checks }
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	for k, v := range map[string]float64{
		"mpi.native_ms":                 ms("mpi.native"),
		"profiler.run_ms":               ms("profiler.run"),
		"profiler.events":               float64(traced.profiled) / passes,
		"profiler.loadstore_events":     float64(traced.loadstore) / passes,
		"profiler.alloc_bytes":          bytes("profiler.run"),
		"profiled_slowdown_x":           profiledSlowdown(traced.spans),
		"trace.write_ms":                ms("trace.write"),
		"trace.write_bytes":             float64(traced.writeBytes) / checks,
		"trace.read_ms":                 ms("trace.read"),
		"trace.read_alloc_bytes":        bytes("trace.read"),
		"model.build_ms":                ms("model.build"),
		"match.run_ms":                  ms("match.run"),
		"dag.build_ms":                  ms("dag.build"),
		"dag.regions":                   float64(traced.dagRegions) / passes,
		"core.epochs_ms":                ms("core.epochs"),
		"core.epochs":                   float64(traced.epochs) / passes,
		"core.detect_intra_ms":          ms("core.detect_intra"),
		"core.detect_intra_alloc_bytes": bytes("core.detect_intra"),
		"core.detect_cross_ms":          ms("core.detect_cross"),
		"core.detect_cross_alloc_bytes": bytes("core.detect_cross"),
		"core.regions_checked":          float64(traced.regions) / passes,
		"core.violations":               float64(traced.violations) / passes,
		"core.dedup_ratio":              ratio(traced.violations, traced.folded),
		"core.render_ms":                ms("core.render"),
		"core.report_bytes":             float64(traced.reportBytes) / checks,
		"serve.submit_ms":               ms("serve.submit"),
		"serve.wait_ms":                 ms("serve.wait"),
		"serve.degraded":                float64(traced.degraded) / passes,
		"serve.shed":                    float64(traced.shed) / passes,
		"missed_bugs":                   float64(traced.missed) / passes,
		"false_alarms":                  float64(traced.falseAlarms) / passes,
		"failed_ratio":                  ratio(int64(base.failed+traced.failed), int64(base.attempted+traced.attempted)),
		"tracing.overhead_pct":          (traced.p50()/base.p50() - 1) * 100,
	} {
		vals[k] = v
	}
	return vals
}

// profiledSlowdown is the paper's Figure 8 ratio: per application, the
// median profiled run over the median native run, summed over the
// applications as time totals. 0 when no native run was timed.
func profiledSlowdown(spans []span) float64 {
	input := map[int]string{}
	runs := map[string]map[string][]float64{} // layer -> input -> ms
	for _, sp := range spans {
		if sp.Parent == 0 {
			input[sp.ID] = sp.Input
			continue
		}
		if sp.Name == "mpi.native" || sp.Name == "profiler.run" {
			if runs[sp.Name] == nil {
				runs[sp.Name] = map[string][]float64{}
			}
			in := input[sp.Parent]
			runs[sp.Name][in] = append(runs[sp.Name][in], sp.dur().Seconds()*1e3)
		}
	}
	var native, profiled float64
	names := make([]string, 0, len(runs["mpi.native"]))
	for in := range runs["mpi.native"] {
		names = append(names, in)
	}
	sort.Strings(names)
	for _, in := range names {
		native += median(runs["mpi.native"][in])
		profiled += median(runs["profiler.run"][in])
	}
	if native == 0 {
		return 0
	}
	return profiled / native
}

// cpuTime returns the CPU time the process has used, user and system.
// Linux excludes the time the hypervisor gives the CPUs to other guests.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
