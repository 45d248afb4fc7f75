package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one metric the benchmark reports: its name, its unit and
// which direction is better. The catalog below must match BENCHMARK.json
// (checked by TestCatalogMatchesBenchmarkJSON).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics of an untraced run (--trace 0): what a check
// costs its user, reported for every workload. Times are CPU times, which
// stay steady on a host that lends its CPUs to other machines.
var endToEnd = []metricDef{
	{"cpu_ms_per_check", "ms", "lower"},
	{"alloc_bytes_per_event", "B/event", "lower"},
	{"trace_bytes_per_event", "B/event", "lower"},
	{"setup_s", "s", "lower"},
}

// wallClock are the wall-clock timings of the untraced checks. Every run
// prints them; traced runs report them with the per-layer metrics, because
// on a shared host they move with the load of other machines more than
// any bound a regression gate could use.
var wallClock = []metricDef{
	{"check_ms_p50", "ms", "lower"},
	{"check_ms_tail", "ms", "lower"},
	{"events_per_s", "events/s", "higher"},
}

// perLayer are the metrics of a traced run (--trace 1): the wall-clock
// timings, then the layers. Layer times and allocated bytes are means per
// check; counts are per pass (one pass runs every input of the workload
// once). A layer the workload does not run reads 0.
var perLayer = append(append([]metricDef(nil), wallClock...), []metricDef{
	{"mpi.native_ms", "ms", "lower"},
	{"profiler.run_ms", "ms", "lower"},
	{"profiler.events", "count", "lower"},
	{"profiler.loadstore_events", "count", "lower"},
	{"profiler.alloc_bytes", "B", "lower"},
	{"profiled_slowdown_x", "ratio", "lower"},
	{"trace.write_ms", "ms", "lower"},
	{"trace.write_bytes", "B", "lower"},
	{"trace.read_ms", "ms", "lower"},
	{"trace.read_alloc_bytes", "B", "lower"},
	{"model.build_ms", "ms", "lower"},
	{"match.run_ms", "ms", "lower"},
	{"dag.build_ms", "ms", "lower"},
	{"dag.regions", "count", "lower"},
	{"core.epochs_ms", "ms", "lower"},
	{"core.epochs", "count", "lower"},
	{"core.detect_intra_ms", "ms", "lower"},
	{"core.detect_intra_alloc_bytes", "B", "lower"},
	{"core.detect_cross_ms", "ms", "lower"},
	{"core.detect_cross_alloc_bytes", "B", "lower"},
	{"core.regions_checked", "count", "lower"},
	{"core.violations", "count", "lower"},
	{"core.dedup_ratio", "ratio", "higher"},
	{"core.render_ms", "ms", "lower"},
	{"core.report_bytes", "B", "lower"},
	{"serve.submit_ms", "ms", "lower"},
	{"serve.wait_ms", "ms", "lower"},
	{"serve.degraded", "count", "lower"},
	{"serve.shed", "count", "lower"},
	{"missed_bugs", "count", "lower"},
	{"false_alarms", "count", "lower"},
	{"failed_ratio", "ratio", "lower"},
	{"tracing.overhead_pct", "%", "lower"},
}...)

// median returns the middle value of xs (the mean of the two middle
// values for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie above the tail percentile.
const minBeyond = 10

// tailOf returns the highest percentile of xs that still has at least
// minBeyond samples above it: the (n-minBeyond)-th smallest sample, with
// the percentile it stands at. ok is false when there are too few
// samples for any such percentile.
func tailOf(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	k := n - minBeyond - 1 // index; samples k+1..n-1 lie beyond it
	return s[k], 100 * float64(k+1) / float64(n), true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult fills every metric of defs from values; a metric missing from
// values is an error, as is a value that is not a finite number.
func newResult(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// printMetrics writes one "name value unit" line per metric, in catalog
// order.
func printMetrics(w io.Writer, defs []metricDef, m map[string]metricValue) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.Name, m[d.Name].Value, d.Unit)
	}
}

func writeResult(w io.Writer, r result) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
