package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"syscall"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/trace"
)

// host is the fingerprint printed with every run.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	TraceDirFS string `json:"trace_dir_fs"`
	// Worker counts in effect, read back from the pipeline's own gauges
	// after one small analysis with default options.
	AnalyzeWorkers int64 `json:"analyze_workers"`
	DecodeWorkers  int64 `json:"decode_workers"`
}

func (h host) String() string {
	b, _ := json.Marshal(h)
	return string(b)
}

// fingerprint records the host and the worker counts the pipeline uses,
// by writing, reading and analyzing a tiny trace set under dir.
func fingerprint(dir string) (host, error) {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		TraceDirFS: fsName(dir),
	}
	probe := filepath.Join(dir, "fingerprint")
	if err := trace.WriteDir(probe, experiments.ShadowSyntheticRegion(3, 4)); err != nil {
		return h, err
	}
	reg := obs.NewRegistry()
	set, err := trace.ReadDirObs(probe, reg)
	if err != nil {
		return h, err
	}
	opts := core.DefaultOptions()
	opts.Obs = reg
	if _, err := core.AnalyzeWith(set, opts); err != nil {
		return h, err
	}
	snap := reg.Snapshot()
	h.DecodeWorkers = snap.GaugeValue("mcchecker_pipeline_decode_workers")
	h.AnalyzeWorkers = snap.GaugeValue("mcchecker_pipeline_front_end_workers")
	return h, nil
}

// fsName names the filesystem holding dir.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0x01021994: "tmpfs", 0xef53: "ext4", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683e: "btrfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
