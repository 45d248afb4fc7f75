// Command perfbench is the checker's end-to-end benchmark. It runs one
// workload from program (or upload) to verdict for a fixed time, checks
// every verdict against a known answer, and prints its metrics by name and
// unit, ending with one JSON line:
//
//	perfbench --workload table2-offline --seed 1 --seconds 10 --trace 0
//
// --trace 0 times the checks untraced and reports the end-to-end metrics;
// --trace 1 spends half the time untraced and half with one span around
// every layer call, and reports the per-layer metrics. See README.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// setupRepeats is how many times a run builds its inputs; setup_s is the
// median.
const setupRepeats = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	seed := fs.Int64("seed", 1, "seed for input order (and, on hot-region, put order)")
	seconds := fs.Int("seconds", 10, "measurement time in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	workdir := fs.String("workdir", ".bench_build", "directory for trace files and the span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	if err := bench(stdout, *name, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *workdir); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func bench(stdout io.Writer, name string, seed int64, dur time.Duration, traced bool, workdir string) (err error) {
	dir, err := filepath.Abs(filepath.Join(workdir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()

	h, err := fingerprint(dir)
	if err != nil {
		return err
	}
	w, setup, warm, err := setupMedian(name, seed, dir)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, w.close()) }()

	var (
		res  = result{Correct: warm.nWrong == 0}
		defs []metricDef
		vals map[string]float64
		runs []measurement
		wall map[string]metricValue // untraced runs print it as information
	)
	if !traced {
		runs = measure(w, dur, nil)
		defs = endToEnd
		vals = endToEndValues(runs[0], setup.cpu)
		if wall, err = newResult(wallClock, wallValues(runs[0])); err != nil {
			return err
		}
	} else {
		tr := newTracer()
		runs = measure(w, dur, tr)
		defs = perLayer
		vals = perLayerValues(runs[0], runs[1])
		spanFile := filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
		if err := tr.writeFile(spanFile); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(runs[1].spans), spanFile)
	}
	for _, m := range runs {
		res.Attempted += m.attempted
		res.Failed += m.failed
		if m.nWrong > 0 {
			res.Correct = false
		}
	}
	if res.Attempted == res.Failed {
		return fmt.Errorf("every check failed, first: %v", runs[0].errs)
	}
	res.Metrics, err = newResult(defs, vals)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "workload %s  seed %d  trace %v\n", name, seed, traced)
	fmt.Fprintf(stdout, "host: %s\n", h)
	fmt.Fprintf(stdout, "setup: median of %d: %.6g s CPU, %.6g s wall\n", setupRepeats, setup.cpu, setup.wall)
	for _, e := range warm.wrong {
		fmt.Fprintf(stdout, "  WRONG in warm-up: %s\n", e)
	}
	for i, m := range runs {
		kind := "untraced"
		if i == 1 {
			kind = "traced"
		}
		_, pct := m.tail()
		fmt.Fprintf(stdout, "%s: %d passes, %d checks (%d failed) in %.3fs; %d timed checks in %d blocks, tail at p%.1f\n",
			kind, m.passes, m.attempted, m.failed, m.wall.Seconds(), len(m.samples), len(m.blocks), pct)
		fmt.Fprintf(stdout, "  missed_bugs %.6g count/pass, false_alarms %.6g count/pass, failed_ratio %.6g\n",
			float64(m.missed)/float64(m.passes), float64(m.falseAlarms)/float64(m.passes),
			float64(m.failed)/float64(m.attempted))
		for _, e := range m.errs {
			fmt.Fprintf(stdout, "  failed: %s\n", e)
		}
		for _, e := range m.wrong {
			fmt.Fprintf(stdout, "  WRONG: %s\n", e)
		}
	}
	if wall != nil {
		fmt.Fprintln(stdout, "wall clock of the checks:")
		printMetrics(stdout, wallClock, wall)
	}
	printMetrics(stdout, defs, res.Metrics)
	return writeResult(stdout, res)
}

// setupTime is the median time of a set-up, in seconds of process CPU
// time (setup_s) and of wall-clock time.
type setupTime struct{ cpu, wall float64 }

// setupMedian builds the workload setupRepeats times, each time
// anew followed by one untimed warm-up pass, and returns the last
// build, the median set-up time and the last warm-up's tally.
func setupMedian(name string, seed int64, dir string) (workload, setupTime, *tally, error) {
	var w workload
	var warm *tally
	var cpu, wall []float64
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, setupTime{}, nil, err
			}
		}
		c0, t0 := cpuTime(), time.Now()
		var err error
		if w, err = setupWorkload(name, seed, dir); err != nil {
			return nil, setupTime{}, nil, err
		}
		warm = &tally{}
		w.pass(nil, warm)
		wall = append(wall, time.Since(t0).Seconds())
		cpu = append(cpu, (cpuTime() - c0).Seconds())
	}
	return w, setupTime{cpu: median(cpu), wall: median(wall)}, warm, nil
}
