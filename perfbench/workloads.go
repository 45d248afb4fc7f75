package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// workload is a prepared set of inputs. pass runs every input once,
// recording one outcome per check into t; tr is nil for untraced runs.
type workload interface {
	pass(tr *tracer, t *tally)
	close() error
}

// workloadNames lists the workloads in the order BENCHMARK.json names them.
var workloadNames = []string{"table2-offline", "fig8-profile", "hot-region", "serve-inline"}

// setupWorkload builds a workload's inputs from seed. dir is a working
// directory the workload may write trace files under.
func setupWorkload(name string, seed int64, dir string) (workload, error) {
	switch name {
	case "table2-offline":
		return newOfflineWorkload(table2Programs(seed), false, dir)
	case "fig8-profile":
		return newOfflineWorkload(fig8Programs(seed), true, dir)
	case "hot-region":
		in, err := hotRegion(seed)
		if err != nil {
			return nil, err
		}
		return &hotWorkload{in: in}, nil
	case "serve-inline":
		return newServeWorkload(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// offlineWorkload runs programs through the offline flow, each with a
// trace directory of its own.
type offlineWorkload struct {
	progs  []program
	native bool // also time an unprofiled run (the Figure 8 baseline)
	dirs   []string
}

func newOfflineWorkload(progs []program, native bool, dir string) (*offlineWorkload, error) {
	w := &offlineWorkload{progs: progs, native: native}
	for i := range progs {
		d := filepath.Join(dir, fmt.Sprintf("in%02d", i))
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
		w.dirs = append(w.dirs, d)
	}
	return w, nil
}

func (w *offlineWorkload) pass(tr *tracer, t *tally) {
	for i := range w.progs {
		p := &w.progs[i]
		out := guard(p.name, func() outcome { return offlineCheck(p, w.native, w.dirs[i], tr) })
		if out.err == nil {
			judgeProgram(p, &out)
		}
		t.record(out)
	}
}

func (w *offlineWorkload) close() error {
	for _, d := range w.dirs {
		if err := os.RemoveAll(d); err != nil {
			return err
		}
	}
	return nil
}

type hotWorkload struct{ in *hotInput }

func (w *hotWorkload) pass(tr *tracer, t *tally) {
	out := guard("hot-region", func() outcome { return hotCheck(w.in, tr) })
	if out.err == nil {
		judgeHot(w.in, &out)
	}
	t.record(out)
}

func (w *hotWorkload) close() error { return nil }

// guard turns a panicking check into a failed one.
func guard(input string, check func() outcome) (out outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = outcome{err: fmt.Errorf("%s: panic: %v", input, r)}
		}
	}()
	return check()
}
