package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validMetric reports whether a metric's name and unit follow the
// grammar BENCHMARK.json requires.
func validMetric(m metricDef) error {
	if !nameRE.MatchString(m.Name) {
		return fmt.Errorf("metric name %q: want a letter or digit, then up to 63 of [A-Za-z0-9_.-]", m.Name)
	}
	if !unitRE.MatchString(m.Unit) {
		return fmt.Errorf("metric %s: unit %q: want 1-16 of [A-Za-z0-9_/%%.-]", m.Name, m.Unit)
	}
	return nil
}

// TestCatalogMatchesBenchmarkJSON keeps the metrics the program prints in
// step with the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", spec.PerLayer, perLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: json %v, code %v", names, workloadNames)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if err := validMetric(m); err != nil {
			t.Error(err)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestMetricGrammar(t *testing.T) {
	good := []metricDef{
		{Name: "check_ms_p50", Unit: "ms"},
		{Name: "core.detect_cross_ms", Unit: "ms"},
		{Name: "9lives", Unit: "events/s"},
		{Name: "tracing.overhead_pct", Unit: "%"},
		{Name: strings.Repeat("a", 64), Unit: strings.Repeat("B", 16)},
	}
	for _, m := range good {
		if err := validMetric(m); err != nil {
			t.Errorf("rejected %v: %v", m, err)
		}
	}
	bad := []metricDef{
		{Name: "", Unit: "ms"},
		{Name: "_leading", Unit: "ms"},
		{Name: ".leading", Unit: "ms"},
		{Name: "has space", Unit: "ms"},
		{Name: "slash/name", Unit: "ms"},
		{Name: strings.Repeat("a", 65), Unit: "ms"},
		{Name: "ok", Unit: ""},
		{Name: "ok", Unit: "ms per op"},
		{Name: "ok", Unit: strings.Repeat("B", 17)},
	}
	for _, m := range bad {
		if validMetric(m) == nil {
			t.Errorf("accepted %q / %q", m.Name, m.Unit)
		}
	}
}

// TestTailRule pins the tail to the highest percentile with at least ten
// samples beyond it.
func TestTailRule(t *testing.T) {
	for _, n := range []int{0, 1, 10} {
		if _, _, ok := tailOf(make([]float64, n)); ok {
			t.Errorf("n=%d: tail reported with too few samples", n)
		}
	}
	for _, n := range []int{11, 12, 50, 100, 110, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[(i*7)%n] = float64(i + 1) // distinct values 1..n, shuffled when 7 ∤ n
		}
		v, pct, ok := tailOf(xs)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != minBeyond {
			t.Errorf("n=%d: %d samples beyond the tail %v, want exactly %d", n, beyond, v, minBeyond)
		}
		if want := 100 * float64(n-minBeyond) / float64(n); pct != want {
			t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
	v, pct, _ := tailOf(seq(100))
	if v != 90 || pct != 90 {
		t.Errorf("1..100: tail %v at p%v, want 90 at p90", v, pct)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// TestBlocks checks that a run's timings are medians over blocks of at
// least blockChecks checks, with a short last block folded in.
func TestBlocks(t *testing.T) {
	m := measurement{tally: &tally{}}
	for pass := 0; pass < 7; pass++ {
		for i := 0; i < 50; i++ {
			m.samples = append(m.samples, float64(pass+1))
		}
		m.events += 50
		m.closeBlock(false)
	}
	m.closeBlock(true)
	// 350 checks: blocks close at 150 and 300; the last 50 fold in.
	if len(m.blocks) != 2 || m.blocks[0].samples != 150 || m.blocks[1].samples != 350 {
		t.Fatalf("blocks %+v", m.blocks)
	}
	if got := m.p50(); got != (2+5.5)/2 {
		t.Errorf("p50 %v, want the median of block medians 2 and 5.5", got)
	}
}

func TestSeedDeterminism(t *testing.T) {
	names := func(ps []program) []string {
		var out []string
		for _, p := range ps {
			out = append(out, p.name)
		}
		return out
	}
	if a, b := names(table2Programs(1)), names(table2Programs(1)); !reflect.DeepEqual(a, b) {
		t.Errorf("table2 order differs for one seed:\n%v\n%v", a, b)
	}
	if a, b := names(table2Programs(1)), names(table2Programs(2)); reflect.DeepEqual(a, b) {
		t.Errorf("table2 order is the same for seeds 1 and 2: %v", a)
	}
	if a, b := names(fig8Programs(1)), names(fig8Programs(3)); reflect.DeepEqual(a, b) {
		t.Errorf("fig8 order is the same for seeds 1 and 3: %v", a)
	}

	h1, err := hotRegion(1)
	if err != nil {
		t.Fatal(err)
	}
	h1b, _ := hotRegion(1)
	h2, _ := hotRegion(2)
	if !reflect.DeepEqual(h1.ranks, h1b.ranks) {
		t.Error("hot-region encodes differently for one seed")
	}
	if reflect.DeepEqual(h1.ranks, h2.ranks) {
		t.Error("hot-region encodes identically for seeds 1 and 2")
	}
	if h1.planted != h2.planted {
		t.Errorf("planted conflict moved with the seed: %v vs %v", h1.planted, h2.planted)
	}

	u1, err := serveUploads(1)
	if err != nil {
		t.Fatal(err)
	}
	u1b, _ := serveUploads(1)
	u2, _ := serveUploads(2)
	bodies := func(us []upload) map[string][]byte {
		m := map[string][]byte{}
		for _, u := range us {
			m[u.name] = u.body
		}
		return m
	}
	order := func(us []upload) []string {
		var out []string
		for _, u := range us {
			out = append(out, u.name)
		}
		return out
	}
	if !reflect.DeepEqual(order(u1), order(u1b)) || !reflect.DeepEqual(bodies(u1), bodies(u1b)) {
		t.Error("serve uploads differ for one seed")
	}
	if reflect.DeepEqual(order(u1), order(u2)) {
		t.Error("serve upload order is the same for seeds 1 and 2")
	}
	if !reflect.DeepEqual(bodies(u1), bodies(u2)) {
		t.Error("the seed changed an upload's content, not just the order")
	}
	truncated := 0
	for _, u := range u1 {
		if u.truncated {
			truncated++
		}
	}
	if want := len(u1) / truncateEvery; truncated != want {
		t.Errorf("%d truncated uploads, want %d", truncated, want)
	}
}

// TestVerdictCatchesWrongVerdicts plants wrong reports and expects each
// judge to flag them.
func TestVerdictCatchesWrongVerdicts(t *testing.T) {
	v := &core.Violation{A: trace.Event{Rank: 1, Line: 7}, B: trace.Event{Rank: 2, Line: 9}, Count: 1}
	clean := rendered{rep: &core.Report{}}
	flagged := rendered{rep: &core.Report{Violations: []*core.Violation{v}}}

	cases := []struct {
		name                     string
		p                        program
		r                        rendered
		missed, falseAlarm, flag bool
	}{
		{"bug reported", program{name: "emulate/buggy", app: "emulate", buggy: true}, flagged, false, false, false},
		{"bug missed", program{name: "emulate/buggy", app: "emulate", buggy: true}, clean, true, false, true},
		{"known miss", program{name: "schedrace/buggy", app: "schedrace", buggy: true}, clean, true, false, false},
		{"fixed clean", program{name: "emulate/fixed", app: "emulate"}, clean, false, false, false},
		{"false alarm", program{name: "emulate/fixed", app: "emulate"}, flagged, false, true, true},
	}
	for _, c := range cases {
		out := outcome{rendered: c.r}
		judgeProgram(&c.p, &out)
		if out.missed != c.missed || out.falseAlarm != c.falseAlarm || (out.wrong != "") != c.flag {
			t.Errorf("%s: missed=%v falseAlarm=%v wrong=%q", c.name, out.missed, out.falseAlarm, out.wrong)
		}
	}

	hot := &hotInput{planted: [2]site{{2, 9}, {1, 7}}}
	out := outcome{rendered: flagged}
	if judgeHot(hot, &out); out.wrong != "" {
		t.Errorf("planted conflict rejected: %s", out.wrong)
	}
	for _, r := range []rendered{
		clean,
		{rep: &core.Report{Violations: []*core.Violation{v, v}}},
		{rep: &core.Report{Violations: []*core.Violation{{A: v.A, B: trace.Event{Rank: 3, Line: 9}}}}},
	} {
		out := outcome{rendered: r}
		if judgeHot(hot, &out); out.wrong == "" {
			t.Errorf("hot-region accepted %d violation(s) %v", len(r.rep.Violations), r.rep.Violations)
		}
	}

	ups := []struct {
		u    upload
		out  outcome
		flag bool
	}{
		{upload{name: "a", app: "emulate"}, outcome{status: "done", violations: 1}, false},
		{upload{name: "a", app: "emulate"}, outcome{status: "done"}, true},
		{upload{name: "a", app: "emulate"}, outcome{status: "quarantined", violations: 1}, true},
		{upload{name: "a", app: "emulate"}, outcome{status: "done", violations: 1, degraded: true}, true},
		{upload{name: "a", app: "emulate", truncated: true}, outcome{status: "done", degraded: true}, false},
		{upload{name: "a", app: "emulate", truncated: true}, outcome{status: "done", violations: 1}, true},
		{upload{name: "s", app: "schedrace"}, outcome{status: "done"}, false},
	}
	for i, c := range ups {
		judgeUpload(&c.u, &c.out)
		if (c.out.wrong != "") != c.flag {
			t.Errorf("upload case %d: wrong=%q, want flagged=%v", i, c.out.wrong, c.flag)
		}
	}
}

// TestTracedPass runs one traced pass of every workload: verdicts must
// hold, each stitched report must equal core.Analyze's, and every layer
// span must nest in its check span.
func TestTracedPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	for _, name := range workloadNames {
		w, err := setupWorkload(name, 1, dir)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		var tl tally
		w.pass(tr, &tl)
		if tl.failed > 0 || tl.nWrong > 0 {
			t.Errorf("%s: failed %v, wrong %v", name, tl.errs, tl.wrong)
		}
		spans := tr.snapshot()
		checks := 0
		for _, sp := range spans {
			if sp.Parent == 0 {
				checks++
			} else if p := spans[sp.Parent-1]; p.Parent != 0 || sp.Start < p.Start || sp.End > p.End {
				t.Errorf("%s: span %s not nested in its check %s", name, sp.Name, p.Input)
			}
		}
		if checks != tl.attempted {
			t.Errorf("%s: %d check spans for %d checks", name, checks, tl.attempted)
		}
		if err := w.close(); err != nil {
			t.Error(err)
		}
	}
}

func TestRunPrintsResultLast(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "hot-region", "--seconds", "1", "--trace", "1", "--workdir", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != len(perLayer) {
		t.Errorf("result %+v", res)
	}
	if code := run([]string{"--workload", "nope", "--seconds", "1"}, &out, &errOut); code == 0 {
		t.Error("unknown workload accepted")
	}
}
