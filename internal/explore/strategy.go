package explore

import (
	"fmt"

	"repro/internal/faults"
)

// Strategy generates the i-th deterministic schedule of a sweep. Plans
// are pure functions of (i, base seed, rank count), so a sweep is
// reproducible and any single schedule can be replayed in isolation via
// its plan's `-faults` string.
type Strategy interface {
	// Name identifies the strategy in progress lines and results.
	Name() string
	// Plan builds schedule i of a sweep with the given base seed for a
	// world of the given rank count.
	Plan(i int, base uint64, ranks int) *faults.Plan
}

// Derivation keys for the seed-derived schedule parameters (arbitrary
// distinct constants; see faults.Derive).
const (
	keyPCTBatch  = 0x70637462 // "pctb": PCT change-point batch ordinals
	keyPCTPrio   = 0x70637470 // "pctp": PCT priority permutation
	keyDelayStep = 0x646c7973 // "dlys": delay-bounded step parameters
)

// Sweep is the plain seed sweep: schedule i enables legal cross-origin
// completion reordering under seed base+i. Cheap, broad, and the
// default — every seed is a different shuffle of every completion batch.
type Sweep struct{}

func (Sweep) Name() string { return "sweep" }

func (Sweep) Plan(i int, base uint64, ranks int) *faults.Plan {
	return &faults.Plan{Seed: base + uint64(i), Reorder: true}
}

// Walk is the random-walk strategy: completion reordering plus seeded
// scheduler yields, perturbing both the completion order and the
// goroutine interleaving around it.
type Walk struct {
	// Yield is the percent chance of a yield per MPI call (default 25).
	Yield int
}

func (Walk) Name() string { return "walk" }

func (w Walk) Plan(i int, base uint64, ranks int) *faults.Plan {
	y := w.Yield
	if y <= 0 {
		y = 25
	}
	return &faults.Plan{Seed: base + uint64(i), Reorder: true, Yield: y}
}

// PCT is the priority-based strategy in the style of PCT (probabilistic
// concurrency testing): each schedule draws a random rank-priority
// permutation plus Depth change points at which a seed-derived rank's
// priority is demoted below all others. PCT's guarantee is that a bug of
// depth d is found with probability ≥ 1/(n·k^(d-1)) per schedule; here
// the "threads" are origin ranks and the "steps" are completion batches.
type PCT struct {
	// Depth is the number of change points per schedule (default 2).
	Depth int
	// MaxBatch bounds the batch ordinals change points land on
	// (default 8; programs with more completion batches than that just
	// see change points concentrated early, which PCT tolerates).
	MaxBatch int
}

func (PCT) Name() string { return "pct" }

func (p PCT) Plan(i int, base uint64, ranks int) *faults.Plan {
	depth := p.Depth
	if depth <= 0 {
		depth = 2
	}
	maxBatch := p.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 8
	}
	seed := base + uint64(i)
	plan := &faults.Plan{Seed: seed}
	// Random priority permutation of the ranks (Fisher–Yates).
	prio := make([]int, ranks)
	for r := range prio {
		prio[r] = r
	}
	rng := faults.Derive(seed, keyPCTPrio)
	for r := len(prio) - 1; r > 0; r-- {
		j := rng.Intn(r + 1)
		prio[r], prio[j] = prio[j], prio[r]
	}
	plan.Prio = prio
	// Depth change points at seed-derived batch ordinals. The demoted
	// rank itself is derived inside the simulator from (seed, point
	// index), so the clause stays compact.
	rng = faults.Derive(seed, keyPCTBatch)
	for c := 0; c < depth; c++ {
		plan.Changes = append(plan.Changes, rng.Intn(maxBatch))
	}
	return plan
}

// DelayBound is the delay-bounded strategy: each schedule inserts Steps
// delay operations, each deferring one origin rank's operations to the
// back of one completion batch. Small step counts cover the "one unusual
// completion order" bugs with a much smaller space than full reordering.
type DelayBound struct {
	// Steps is the number of delay clauses per schedule (default 1).
	Steps int
	// MaxBatch bounds the batch ordinals delays land on (default 8).
	MaxBatch int
}

func (DelayBound) Name() string { return "delay" }

func (d DelayBound) Plan(i int, base uint64, ranks int) *faults.Plan {
	steps := d.Steps
	if steps <= 0 {
		steps = 1
	}
	maxBatch := d.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 8
	}
	seed := base + uint64(i)
	plan := &faults.Plan{Seed: seed}
	rng := faults.Derive(seed, keyDelayStep)
	for s := 0; s < steps; s++ {
		plan.Delays = append(plan.Delays, faults.Delay{
			Origin: rng.Intn(ranks),
			Batch:  rng.Intn(maxBatch),
		})
	}
	return plan
}

// Strategies returns every built-in strategy with default parameters,
// keyed for CLI listings.
func Strategies() []Strategy {
	return []Strategy{Sweep{}, Walk{}, PCT{}, DelayBound{}}
}

// ParseStrategy resolves a CLI strategy name to a Strategy with default
// parameters.
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range Strategies() {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("explore: unknown strategy %q (want sweep, walk, pct, or delay)", name)
}
