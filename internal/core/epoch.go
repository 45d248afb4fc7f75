package core

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/model"
	"repro/internal/obs/tracing"
	"repro/internal/par"
	"repro/internal/trace"
)

// EpochKind classifies the synchronization mode that opened an epoch.
type EpochKind uint8

const (
	EpochFence EpochKind = iota
	EpochLockShared
	EpochLockExclusive
	EpochPSCW
	EpochLockAll // MPI-3 Win_lock_all..Win_unlock_all (shared to all ranks)
)

func (k EpochKind) String() string {
	switch k {
	case EpochFence:
		return "fence"
	case EpochLockShared:
		return "lock(shared)"
	case EpochLockExclusive:
		return "lock(exclusive)"
	case EpochLockAll:
		return "lock_all"
	default:
		return "start/complete"
	}
}

// Epoch is one access epoch at one rank on one window: a program execution
// region delimited by RMA synchronization operations (paper §II-A).
// Nonblocking one-sided operations issued within it are unordered with each
// other and with the local accesses that follow them until End.
type Epoch struct {
	Kind   EpochKind
	Rank   int32
	Win    int32
	Target int32 // world rank locked (lock epochs only); -1 otherwise
	Start  int64 // seq of the opening sync event
	End    int64 // seq of the closing sync event (len(trace) if truncated)
	Ops    []trace.ID

	// first is the operation-table index of Ops[0], -1 when Ops is empty;
	// the table links each of the epoch's operations to the next.
	first int32
}

func (e *Epoch) String() string {
	return fmt.Sprintf("rank %d win %d %s epoch [%d,%d] with %d ops",
		e.Rank, e.Win, e.Kind, e.Start, e.End, len(e.Ops))
}

// ExtractEpochs walks every rank's trace and groups RMA operations into
// epochs by matching the synchronization calls (paper §III-C: "MC-Checker
// first scans all the vertices belonging to a process and identifies all
// the epochs within the process by matching the synchronization calls").
// It returns the epochs and the operation table, which maps each RMA
// operation to its epoch and holds its resolved footprints.
func ExtractEpochs(m *model.Model) ([]*Epoch, OpEpochs, error) {
	return ExtractEpochsWorkers(m, 1)
}

// ExtractEpochsWorkers is ExtractEpochs with the per-rank scans fanned
// out over a worker pool. Epoch matching never crosses ranks, so each
// rank's epochs and operations are computed independently and
// concatenated in rank order — the exact sequence the serial walk
// produces, keeping every downstream consumer byte-identical.
func ExtractEpochsWorkers(m *model.Model, workers int) ([]*Epoch, OpEpochs, error) {
	return ExtractEpochsWorkersTraced(m, workers, nil)
}

// ExtractEpochsWorkersTraced is ExtractEpochsWorkers with each rank's
// sync-matching scan recorded as a span on tr (track "epochs"). tr may
// be nil.
func ExtractEpochsWorkersTraced(m *model.Model, workers int, tr *tracing.Recorder) ([]*Epoch, OpEpochs, error) {
	n := len(m.Set.Traces)
	perEpochs := make([][]*Epoch, n)
	ops := OpEpochs{ranks: make([]rankOps, n)}
	scope := func(r int) string { return fmt.Sprintf("rank %d", r) }
	err := par.RanksTraced(n, workers, tr, "epochs", scope, func(r int, sp *tracing.Span) error {
		var err error
		perEpochs[r], ops.ranks[r], err = extractRankEpochs(m, m.Set.Traces[r])
		if sp != nil {
			sp.Annotate("epochs", strconv.Itoa(len(perEpochs[r])))
			sp.Annotate("ops", strconv.Itoa(len(ops.ranks[r].ops)))
		}
		return err
	})
	if err != nil {
		return nil, OpEpochs{}, err
	}
	total := 0
	for _, es := range perEpochs {
		total += len(es)
	}
	epochs := make([]*Epoch, 0, total)
	for _, es := range perEpochs {
		epochs = append(epochs, es...)
	}
	return epochs, ops, nil
}

// opensEpoch reports whether an event of kind k opens an epoch. Each such
// event opens exactly one, so counting them sizes a rank's epoch list.
func opensEpoch(k trace.Kind) bool {
	switch k {
	case trace.KindWinFence, trace.KindWinLock, trace.KindWinStart, trace.KindWinLockAll:
		return true
	}
	return false
}

// extractRankEpochs matches the synchronization calls of one rank's
// trace and builds the rank's part of the operation table. It reads only
// the (immutable after Build) model registries and the rank's own
// events, so ranks may run concurrently. Its epochs, operations and
// operation IDs are counted first and each allocated once at their size.
func extractRankEpochs(m *model.Model, t *trace.Trace) ([]*Epoch, rankOps, error) {
	rank := t.Rank
	nops, nepochs := 0, 0
	for i := range t.Events {
		if k := t.Events[i].Kind; k.IsRMAComm() {
			nops++
		} else if opensEpoch(k) {
			nepochs++
		}
	}
	store := make([]Epoch, 0, nepochs) // never outgrows its capacity, so &store[i] is stable
	epochs := make([]*Epoch, 0, nepochs)
	ops := rankOps{rank: rank, ops: make([]opEntry, 0, nops)}
	// Per-window open-epoch state for this rank.
	fence := map[int32]*Epoch{}    // win → open fence epoch
	locks := map[[2]int32]*Epoch{} // (win, targetWorld) → open lock epoch
	pscw := map[int32]*Epoch{}     // win → open access (start) epoch
	lockAll := map[int32]*Epoch{}  // win → open lock_all epoch

	openEpoch := func(kind EpochKind, win, target int32, start int64) *Epoch {
		store = append(store, Epoch{Kind: kind, Rank: rank, Win: win, Target: target, Start: start, first: -1})
		return &store[len(store)-1]
	}
	closeEpoch := func(e *Epoch, end int64) {
		e.End = end
		epochs = append(epochs, e)
	}
	fail := func(err error) ([]*Epoch, rankOps, error) { return nil, rankOps{}, err }

	for i := range t.Events {
		ev := &t.Events[i]
		seq := int64(i)
		switch ev.Kind {
		case trace.KindWinFence:
			if open := fence[ev.Win]; open != nil {
				closeEpoch(open, seq)
			}
			fence[ev.Win] = openEpoch(EpochFence, ev.Win, -1, seq)
		case trace.KindWinLock:
			tw, err := lockTargetWorld(m, ev)
			if err != nil {
				return fail(err)
			}
			kind := EpochLockShared
			if ev.Lock == trace.LockExclusive {
				kind = EpochLockExclusive
			}
			key := [2]int32{ev.Win, tw}
			if locks[key] != nil {
				return fail(fmt.Errorf("core: rank %d double-locks win %d target %d at %s",
					rank, ev.Win, tw, ev.Loc()))
			}
			locks[key] = openEpoch(kind, ev.Win, tw, seq)
		case trace.KindWinUnlock:
			tw, err := lockTargetWorld(m, ev)
			if err != nil {
				return fail(err)
			}
			key := [2]int32{ev.Win, tw}
			open := locks[key]
			if open == nil {
				return fail(fmt.Errorf("core: rank %d unlocks win %d target %d without lock at %s",
					rank, ev.Win, tw, ev.Loc()))
			}
			closeEpoch(open, seq)
			delete(locks, key)
		case trace.KindWinStart:
			if pscw[ev.Win] != nil {
				return fail(fmt.Errorf("core: rank %d nested Win_start on win %d at %s",
					rank, ev.Win, ev.Loc()))
			}
			pscw[ev.Win] = openEpoch(EpochPSCW, ev.Win, -1, seq)
		case trace.KindWinComplete:
			open := pscw[ev.Win]
			if open == nil {
				return fail(fmt.Errorf("core: rank %d Win_complete without Win_start at %s",
					rank, ev.Loc()))
			}
			closeEpoch(open, seq)
			delete(pscw, ev.Win)
		case trace.KindWinLockAll:
			if lockAll[ev.Win] != nil {
				return fail(fmt.Errorf("core: rank %d nested Win_lock_all on win %d at %s",
					rank, ev.Win, ev.Loc()))
			}
			lockAll[ev.Win] = openEpoch(EpochLockAll, ev.Win, -1, seq)
		case trace.KindWinUnlockAll:
			open := lockAll[ev.Win]
			if open == nil {
				return fail(fmt.Errorf("core: rank %d Win_unlock_all without Win_lock_all at %s",
					rank, ev.Loc()))
			}
			closeEpoch(open, seq)
			delete(lockAll, ev.Win)
		case trace.KindPut, trace.KindGet, trace.KindAccumulate,
			trace.KindGetAccumulate, trace.KindFetchOp, trace.KindCompareSwap:
			tw, err := m.TargetWorld(ev)
			if err != nil {
				return fail(err)
			}
			e := locks[[2]int32{ev.Win, tw}]
			if e == nil {
				e = lockAll[ev.Win]
			}
			if e == nil {
				e = pscw[ev.Win]
			}
			if e == nil {
				e = fence[ev.Win]
			}
			if e == nil {
				return fail(fmt.Errorf("core: rank %d issues %s outside any epoch at %s",
					rank, ev.Kind, ev.Loc()))
			}
			ops.ops = append(ops.ops, opEntry{seq: seq, epoch: e, tw: tw})
		}
	}

	// Close the epochs the end of the trace truncated, in a fixed order:
	// map iteration order would make the epoch list vary run to run.
	var open []*Epoch
	for _, states := range []map[int32]*Epoch{fence, pscw, lockAll} {
		for _, e := range states {
			open = append(open, e)
		}
	}
	for _, e := range locks {
		open = append(open, e)
	}
	slices.SortFunc(open, func(a, b *Epoch) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Win, b.Win), cmp.Compare(a.Target, b.Target))
	})
	end := int64(len(t.Events))
	for _, e := range open {
		closeEpoch(e, end)
	}

	ops.linkEpochs(store)
	if err := ops.resolve(m, t); err != nil {
		return fail(err)
	}
	return epochs, ops, nil
}

func lockTargetWorld(m *model.Model, ev *trace.Event) (int32, error) {
	wi, err := m.Win(ev.Win)
	if err != nil {
		return 0, err
	}
	ci, err := m.Comm(wi.Comm)
	if err != nil {
		return 0, err
	}
	return ci.World(ev.Target)
}
