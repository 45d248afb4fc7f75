// Package model implements DN-Analyzer's trace preprocessing
// (paper §IV-C-1): before error checking, the analyzer scans the per-rank
// traces and rebuilds the registries the later stages consult —
// communicators and groups (translating communicator-relative ranks to
// absolute world ranks), window buffers (handle → per-rank base address,
// size, displacement unit), and datatypes (handle → data-map).
package model

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/memory"
	"repro/internal/obs/tracing"
	"repro/internal/par"
	"repro/internal/trace"
)

// CommInfo describes one communicator: Members[rel] is the world rank of
// communicator-relative rank rel.
type CommInfo struct {
	ID      int32
	Members []int32
}

// Size returns the number of member processes.
func (c *CommInfo) Size() int { return len(c.Members) }

// World translates a communicator-relative rank to a world rank.
func (c *CommInfo) World(rel int32) (int32, error) {
	if rel < 0 || int(rel) >= len(c.Members) {
		return 0, fmt.Errorf("model: rank %d out of range for communicator %d of size %d",
			rel, c.ID, len(c.Members))
	}
	return c.Members[rel], nil
}

// WinLocal is one rank's side of an RMA window.
type WinLocal struct {
	Base     uint64
	Size     uint64
	DispUnit uint32
}

// Interval returns the window buffer's simulated address range.
func (wl WinLocal) Interval() memory.Interval { return memory.Iv(wl.Base, wl.Size) }

// WinInfo describes one RMA window across all participating ranks.
type WinInfo struct {
	ID     int32
	Comm   int32
	Locals map[int32]WinLocal // keyed by world rank
}

// Model is the preprocessed view of a trace set.
type Model struct {
	Set   *trace.Set
	Comms map[int32]*CommInfo
	Wins  map[int32]*WinInfo
	types map[typeKey]memory.DataMap

	rankWins [][]LocalWindow // per world rank, ascending window ID
}

// LocalWindow is one window's buffer at one rank.
type LocalWindow struct {
	Info *WinInfo
	Buf  memory.Interval
}

type typeKey struct {
	rank int32
	id   int32
}

// Build scans the trace set and constructs the registries. It validates
// definition events for consistency (duplicate window definitions with
// conflicting communicators, datatype redefinitions).
func Build(set *trace.Set) (*Model, error) { return BuildWorkers(set, 1) }

// BuildWorkers is Build with the per-rank scans fanned out over a worker
// pool: validation and the definition-event sweep are per-rank
// independent, so only the registry merge runs serially. Definition
// events are merged in (rank, sequence) order — exactly the order the
// serial scan visits them — so the registries, and any conflict error,
// are identical whatever the worker count.
func BuildWorkers(set *trace.Set, workers int) (*Model, error) {
	return BuildWorkersTraced(set, workers, nil)
}

// BuildWorkersTraced is BuildWorkers with each rank's validation+sweep
// recorded as a span on tr (track "model"). tr may be nil.
func BuildWorkersTraced(set *trace.Set, workers int, tr *tracing.Recorder) (*Model, error) {
	if err := set.ValidateWorkers(workers); err != nil {
		return nil, err
	}
	m := &Model{
		Set:   set,
		Comms: make(map[int32]*CommInfo),
		Wins:  make(map[int32]*WinInfo),
		types: make(map[typeKey]memory.DataMap),
	}
	// MPI_COMM_WORLD is implicit.
	world := &CommInfo{ID: 0, Members: make([]int32, set.Ranks())}
	for r := range world.Members {
		world.Members[r] = int32(r)
	}
	m.Comms[0] = world

	// Parallel sweep: collect each rank's definition events (a tiny
	// fraction of the trace) without touching shared state.
	defs := make([][]*trace.Event, len(set.Traces))
	scope := func(r int) string { return fmt.Sprintf("rank %d", r) }
	_ = par.RanksTraced(len(set.Traces), workers, tr, "model", scope, func(r int, sp *tracing.Span) error {
		t := set.Traces[r]
		for i := range t.Events {
			switch t.Events[i].Kind {
			case trace.KindCommCreate, trace.KindWinCreate, trace.KindTypeCreate:
				defs[r] = append(defs[r], &t.Events[i])
			}
		}
		if sp != nil {
			sp.Annotate("events", strconv.Itoa(len(t.Events)))
			sp.Annotate("defs", strconv.Itoa(len(defs[r])))
		}
		return nil
	})

	// Serial merge in (rank, seq) order.
	for _, rankDefs := range defs {
		for _, ev := range rankDefs {
			switch ev.Kind {
			case trace.KindCommCreate:
				if err := m.addComm(ev); err != nil {
					return nil, err
				}
			case trace.KindWinCreate:
				if err := m.addWin(ev); err != nil {
					return nil, err
				}
			case trace.KindTypeCreate:
				d := ev.Payload()
				key := typeKey{rank: ev.Rank, id: d.TypeID}
				if _, dup := m.types[key]; dup {
					return nil, fmt.Errorf("model: rank %d redefines datatype %d at %s",
						ev.Rank, d.TypeID, ev.Loc())
				}
				m.types[key] = d.TypeMap
			}
		}
	}
	m.rankWins = make([][]LocalWindow, set.Ranks())
	for _, wi := range m.Wins {
		for r, local := range wi.Locals {
			m.rankWins[r] = append(m.rankWins[r], LocalWindow{Info: wi, Buf: local.Interval()})
		}
	}
	for _, ws := range m.rankWins {
		slices.SortFunc(ws, func(a, b LocalWindow) int { return cmp.Compare(a.Info.ID, b.Info.ID) })
	}
	return m, nil
}

func (m *Model) addComm(ev *trace.Event) error {
	members := ev.Payload().Members
	if existing, ok := m.Comms[ev.Comm]; ok {
		if !slices.Equal(existing.Members, members) {
			return fmt.Errorf("model: communicator %d defined with conflicting memberships", ev.Comm)
		}
		return nil
	}
	m.Comms[ev.Comm] = &CommInfo{ID: ev.Comm, Members: append([]int32(nil), members...)}
	return nil
}

func (m *Model) addWin(ev *trace.Event) error {
	wi, ok := m.Wins[ev.Win]
	if !ok {
		wi = &WinInfo{ID: ev.Win, Comm: ev.Comm, Locals: make(map[int32]WinLocal)}
		m.Wins[ev.Win] = wi
	}
	if wi.Comm != ev.Comm {
		return fmt.Errorf("model: window %d created on both communicator %d and %d", ev.Win, wi.Comm, ev.Comm)
	}
	if _, dup := wi.Locals[ev.Rank]; dup {
		return fmt.Errorf("model: rank %d defines window %d twice", ev.Rank, ev.Win)
	}
	d := ev.Payload()
	wi.Locals[ev.Rank] = WinLocal{Base: d.WinBase, Size: d.WinSize, DispUnit: d.DispUnit}
	return nil
}

// Comm returns the communicator registry entry.
func (m *Model) Comm(id int32) (*CommInfo, error) {
	c, ok := m.Comms[id]
	if !ok {
		return nil, fmt.Errorf("model: unknown communicator %d", id)
	}
	return c, nil
}

// Win returns the window registry entry.
func (m *Model) Win(id int32) (*WinInfo, error) {
	w, ok := m.Wins[id]
	if !ok {
		return nil, fmt.Errorf("model: unknown window %d", id)
	}
	return w, nil
}

// Type resolves a datatype id used by a rank to its data-map: predefined
// ids resolve globally, user-defined ids per defining rank.
func (m *Model) Type(rank, id int32) (memory.DataMap, error) {
	if dm, ok := trace.PredefinedType(id); ok {
		return dm, nil
	}
	dm, ok := m.types[typeKey{rank: rank, id: id}]
	if !ok {
		return memory.DataMap{}, fmt.Errorf("model: rank %d uses undefined datatype %d", rank, id)
	}
	return dm, nil
}

// Footprint is the set of byte intervals one memory operation touches in
// one rank's address space.
type Footprint struct {
	Rank      int32 // world rank owning the address space
	Intervals []memory.Interval
}

// Overlaps reports whether two footprints share bytes; both must be in the
// same rank's address space to overlap.
func (f Footprint) Overlaps(o Footprint) (memory.Interval, bool) {
	if f.Rank != o.Rank {
		return memory.Interval{}, false
	}
	i, j := 0, 0
	for i < len(f.Intervals) && j < len(o.Intervals) {
		if x, ok := f.Intervals[i].Intersect(o.Intervals[j]); ok {
			return x, true
		}
		if f.Intervals[i].Hi <= o.Intervals[j].Hi {
			i++
		} else {
			j++
		}
	}
	return memory.Interval{}, false
}

// TargetWorld resolves the world rank an RMA operation targets.
func (m *Model) TargetWorld(ev *trace.Event) (int32, error) {
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

// TargetFootprint computes the window-buffer bytes an RMA operation touches
// at the target.
func (m *Model) TargetFootprint(ev *trace.Event) (Footprint, error) {
	ivs, tw, err := m.AppendTargetFootprint(nil, ev)
	if err != nil {
		return Footprint{}, err
	}
	return Footprint{Rank: tw, Intervals: ivs}, nil
}

// AppendTargetFootprint appends TargetFootprint's intervals to dst and
// returns the extended slice with the target world rank, so footprints
// can share one arena. It fails exactly when TargetFootprint does, with
// the same error, and then returns dst unchanged.
func (m *Model) AppendTargetFootprint(dst []memory.Interval, ev *trace.Event) ([]memory.Interval, int32, error) {
	if !ev.Kind.IsRMAComm() {
		return dst, 0, fmt.Errorf("model: %v is not an RMA operation", ev.Kind)
	}
	wi, err := m.Win(ev.Win)
	if err != nil {
		return dst, 0, err
	}
	ci, err := m.Comm(wi.Comm) // TargetWorld, without looking up the window twice
	if err != nil {
		return dst, 0, err
	}
	tw, err := ci.World(ev.Target)
	if err != nil {
		return dst, 0, err
	}
	local, ok := wi.Locals[tw]
	if !ok {
		return dst, 0, fmt.Errorf("model: window %d has no local buffer at rank %d", ev.Win, tw)
	}
	dm, err := m.Type(ev.Rank, ev.TargetType)
	if err != nil {
		return dst, 0, err
	}
	base := local.Base + ev.TargetDisp*uint64(local.DispUnit)
	dst, err = appendTile(dst, dm, base, ev.TargetCount)
	return dst, tw, err
}

// OriginFootprint computes the local-buffer bytes an RMA operation (or a
// p2p/collective call) touches at the origin rank.
func (m *Model) OriginFootprint(ev *trace.Event) (Footprint, error) {
	ivs, err := m.AppendOriginFootprint(nil, ev)
	if err != nil {
		return Footprint{}, err
	}
	return Footprint{Rank: ev.Rank, Intervals: ivs}, nil
}

// AppendOriginFootprint appends OriginFootprint's intervals to dst, as
// AppendTargetFootprint does.
func (m *Model) AppendOriginFootprint(dst []memory.Interval, ev *trace.Event) ([]memory.Interval, error) {
	dm, err := m.Type(ev.Rank, ev.OriginType)
	if err != nil {
		return dst, err
	}
	return appendTile(dst, dm, ev.OriginAddr, ev.OriginCount)
}

// ResultFootprint computes the local result-buffer bytes a fetching atomic
// (Get_accumulate, Fetch_and_op, Compare_and_swap) writes at completion.
// It returns an empty footprint for operations without a result buffer.
func (m *Model) ResultFootprint(ev *trace.Event) (Footprint, error) {
	ivs, err := m.AppendResultFootprint(nil, ev)
	if err != nil {
		return Footprint{}, err
	}
	return Footprint{Rank: ev.Rank, Intervals: ivs}, nil
}

// AppendResultFootprint appends ResultFootprint's intervals to dst, as
// AppendTargetFootprint does; it appends none for an operation without a
// result buffer.
func (m *Model) AppendResultFootprint(dst []memory.Interval, ev *trace.Event) ([]memory.Interval, error) {
	if ev.ResultCount <= 0 {
		return dst, nil
	}
	dm, err := m.Type(ev.Rank, ev.ResultType)
	if err != nil {
		return dst, err
	}
	return appendTile(dst, dm, ev.ResultAddr, ev.ResultCount)
}

// MaxTileWork bounds the work of tiling one footprint, in the steps
// memory.DataMap.TileWork counts, which also bound the intervals the
// footprint holds (at most 16 MiB of them). Counts and datatypes come
// straight from the trace: a strided type with a count near 2^31 would
// ask for about 2^31 intervals. Tiles that coalesce into one interval
// take one step whatever their count. Real programs stay far below the
// bound: no bundled application or workload needs more than a few dozen
// steps.
const MaxTileWork = 1 << 20

// appendTile tiles count elements of dm at base onto dst, or fails,
// leaving dst unchanged, when that takes more than MaxTileWork steps.
func appendTile(dst []memory.Interval, dm memory.DataMap, base uint64, count int32) ([]memory.Interval, error) {
	if work := dm.TileWork(int(count)); work > MaxTileWork {
		return dst, fmt.Errorf("model: tiling %d elements of a %d-segment datatype takes %d steps, over the limit of %d",
			count, len(dm.Segments), work, MaxTileWork)
	}
	return dm.AppendTile(dst, base, int(count)), nil
}

// AccessFootprint computes the bytes a local load/store touches.
func AccessFootprint(ev *trace.Event) Footprint {
	return Footprint{Rank: ev.Rank, Intervals: []memory.Interval{memory.Iv(ev.Addr, ev.Size)}}
}

// RankWindows returns the windows that expose a buffer at the given
// world rank, in ascending window ID. Windows may share bytes, so a
// caller looking for the windows of an address visits every overlapping
// entry.
func (m *Model) RankWindows(rank int32) []LocalWindow {
	if rank < 0 || int(rank) >= len(m.rankWins) {
		return nil
	}
	return m.rankWins[rank]
}
