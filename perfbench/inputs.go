package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/experiments"
	"repro/internal/mpi"
	"repro/internal/profiler"
	"repro/internal/serve"
	"repro/internal/trace"
)

const (
	maxRanks = 8 // rank cap for the Table II programs
	amplify  = 8 // each Table II body runs this many times back to back

	fig8Ranks = 8
	fig8Scale = 1.0

	hotRanks = 8
	hotOps   = 4096
)

// knownMisses are the planted bugs the dynamic checker is documented to
// miss on the default schedule: schedrace manifests only under a minority
// of completion orders (apps.ScheduleCases). A missed bug outside this set
// is a wrong verdict.
var knownMisses = map[string]bool{"schedrace": true}

// program is one input of the offline workloads: an application variant
// with the verdict its registry label promises.
type program struct {
	name  string // app/variant
	app   string
	buggy bool
	ranks int
	body  func(p *mpi.Proc) error
	rel   profiler.Relevance
}

// shuffle permutes xs with a generator seeded by seed.
func shuffle[T any](seed int64, xs []T) {
	rand.New(rand.NewSource(seed)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// repeatBody runs body times back to back, like the amplified corpora of
// the in-repo bench harness.
func repeatBody(body func(p *mpi.Proc) error, times int) func(p *mpi.Proc) error {
	return func(p *mpi.Proc) error {
		for i := 0; i < times; i++ {
			if err := body(p); err != nil {
				return err
			}
		}
		return nil
	}
}

func relevance(names []string) profiler.Relevance {
	if names == nil {
		return nil
	}
	return profiler.FromNames(names)
}

// table2Programs lists every registry case, buggy and fixed, with ranks
// capped and bodies amplified, in an order shuffled by seed.
func table2Programs(seed int64) []program {
	ps := registryPrograms()
	shuffle(seed, ps)
	return ps
}

// registryPrograms lists every registry case, buggy and fixed, with ranks
// capped and bodies amplified, in registry order.
func registryPrograms() []program {
	var ps []program
	for _, bc := range apps.AllCases() {
		ranks := min(bc.Ranks, maxRanks)
		for _, buggy := range []bool{true, false} {
			body, variant := bc.Fixed, "fixed"
			if buggy {
				body, variant = bc.Buggy, "buggy"
			}
			ps = append(ps, program{
				name: bc.Name + "/" + variant, app: bc.Name, buggy: buggy, ranks: ranks,
				body: repeatBody(body, amplify), rel: relevance(bc.RelevantBuffers),
			})
		}
	}
	return ps
}

// fig8Programs lists the five overhead applications of the paper's
// Figure 8, which carry no planted bug, in an order shuffled by seed.
func fig8Programs(seed int64) []program {
	var ps []program
	for _, wl := range apps.Workloads() {
		ps = append(ps, program{
			name: wl.Name, app: wl.Name, ranks: fig8Ranks,
			body: wl.Body(fig8Scale), rel: relevance(wl.RelevantBuffers),
		})
	}
	shuffle(seed, ps)
	return ps
}

// site identifies an event by rank and source line.
type site struct {
	Rank int32
	Line int32
}

// hotInput is the encoded synthetic region of the hot-region workload.
type hotInput struct {
	ranks   [][]byte // one encoded stream per rank
	events  int
	planted [2]site // the two puts of the planted conflict
}

// hotRegion builds experiments.ShadowSyntheticRegion, permutes the puts
// inside every epoch with a generator seeded by seed, and encodes each
// rank. The planted conflict — ranks 1 and 2 both putting the window's
// last word, each in an epoch of its own — survives any permutation.
func hotRegion(seed int64) (*hotInput, error) {
	set := experiments.ShadowSyntheticRegion(hotRanks, hotOps)
	rng := rand.New(rand.NewSource(seed))
	var winSize uint64
	for _, t := range set.Traces {
		for _, ev := range t.Events {
			if ev.Kind == trace.KindWinCreate {
				winSize = max(winSize, ev.WinSize)
			}
		}
	}
	in := &hotInput{events: set.TotalEvents()}
	found := 0
	for _, t := range set.Traces {
		evs := t.Events
		for lo := 0; lo < len(evs); lo++ {
			if evs[lo].Kind != trace.KindPut {
				continue
			}
			hi := lo
			for hi < len(evs) && evs[hi].Kind == trace.KindPut {
				hi++
			}
			run := evs[lo:hi]
			rng.Shuffle(len(run), func(i, j int) { run[i], run[j] = run[j], run[i] })
			lo = hi - 1
		}
		for i := range evs {
			evs[i].Seq = int64(i)
			ev := &evs[i]
			if ev.Kind == trace.KindPut && ev.TargetDisp == winSize-8 {
				if found == 2 {
					return nil, fmt.Errorf("hot-region: more than two puts to the tail word")
				}
				in.planted[found] = site{ev.Rank, ev.Line}
				found++
			}
		}
		b, err := trace.EncodeTrace(t)
		if err != nil {
			return nil, err
		}
		in.ranks = append(in.ranks, b)
	}
	if found != 2 {
		return nil, fmt.Errorf("hot-region: found %d planted puts, want 2", found)
	}
	return in, nil
}

// upload is one POST /jobs body of the serve-inline workload.
type upload struct {
	name      string
	app       string
	body      []byte // JSON submission
	truncated bool   // one rank's stream is cut in half
	bytes     int    // encoded trace bytes carried
}

// truncateEvery marks every truncateEvery-th upload as truncated.
const truncateEvery = 4

// serveUploads profiles every buggy registry case (ranks capped, bodies
// amplified), encodes its traces and marshals them as inline submissions.
// Every truncateEvery-th upload in registry order has its last rank's
// stream cut to half its length. The seed shuffles the order only, so
// every seed sends the same uploads.
func serveUploads(seed int64) ([]upload, error) {
	var ups []upload
	for _, p := range registryPrograms() {
		if !p.buggy {
			continue
		}
		set, err := profiledRun(p)
		if err != nil {
			return nil, err
		}
		u := upload{name: p.name, app: p.app}
		var ranks []serve.RankUpload
		for _, t := range set.Traces {
			b, err := trace.EncodeTrace(t)
			if err != nil {
				return nil, err
			}
			ranks = append(ranks, serve.RankUpload{Rank: t.Rank, Data: b})
		}
		if len(ups)%truncateEvery == truncateEvery-1 {
			r := &ranks[len(ranks)-1]
			r.Data = r.Data[:len(r.Data)/2]
			u.truncated = true
		}
		for _, r := range ranks {
			u.bytes += len(r.Data)
		}
		if u.body, err = json.Marshal(serve.Submission{Traces: ranks}); err != nil {
			return nil, err
		}
		ups = append(ups, u)
	}
	shuffle(seed, ups)
	return ups, nil
}

// profiledRun executes a program under the profiler and returns its
// in-memory trace set.
func profiledRun(p program) (*trace.Set, error) {
	sink := trace.NewMemorySink()
	if err := mpi.Run(p.ranks, mpi.Options{Hook: profiler.New(sink, p.rel)}, p.body); err != nil {
		return nil, fmt.Errorf("%s: profiled run: %w", p.name, err)
	}
	return sink.Set(), nil
}
