package scenario

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/events"
	"ptgsched/internal/experiment"
	"ptgsched/internal/platform"
	"ptgsched/internal/strategy"
	"ptgsched/internal/workload"
)

// Cell is one aggregation cell of the sweep: a family grid point crossed
// with an arrival-process point, carrying the fully resolved campaign
// configuration its scenario points run under. One Cell aggregates into
// one summary table (one row per NPTGs value).
type Cell struct {
	// Index is the cell's position in the expansion.
	Index int
	// Label names the cell, e.g. "random", "random[t=20 w=0.5 r=0.2 d=0.8
	// j=2 mixed]" or "fft[k=3]+poisson@0.25".
	Label string
	// Family is the cell's PTG family.
	Family daggen.Family
	// Online is nil for offline (concurrent-submission) cells.
	Online *OnlineCell
	// Policy names the rescheduling policy of dynamic-scenario cells
	// (specs with a non-empty events axis); empty for static cells.
	Policy string
	// Config is the resolved experiment campaign this cell is a slice of:
	// its NPTGs, Reps, Platforms, Strategies, Labels, Seed and Gen fields
	// drive experiment.RunOneWith for every point of the cell.
	Config experiment.Config
}

// OnlineCell pins one arrival-process point.
type OnlineCell struct {
	Process workload.Process
	// Rate is the arrival rate in applications/second (0 for burst).
	Rate float64
}

// Point is one fully determined scenario of the sweep: a cell sliced to
// one (#PTGs, repetition, platform) triple.
type Point struct {
	// Index is the point's position in the expansion's global order; the
	// shard partition and the aggregation order are defined over it.
	Index int `json:"index"`
	// Cell indexes Expansion.Cells.
	Cell int `json:"cell"`
	// NIdx, Rep and Platform locate the point within its cell: indices
	// into the spec's NPTGs list, repetition range and platform list.
	NIdx     int `json:"nidx"`
	Rep      int `json:"rep"`
	Platform int `json:"platform"`
	// NPTGs is the resolved number of concurrently-submitted PTGs.
	NPTGs int `json:"nptgs"`
	// Name is the point's canonical name, e.g. "random/n=4/rep=7/Rennes".
	Name string `json:"name"`
	// Seed is the point's derived scenario seed (shared across platforms
	// of the same repetition, as in the paper's protocol).
	Seed int64 `json:"seed"`
}

// Expansion is a spec expanded into its deterministic cartesian sweep.
// Only the aggregation cells are materialized; the scenario points are
// generated lazily — PointAt derives any point in O(1) from its global
// index, so the sweep's cardinality is bounded by arithmetic (MaxPoints),
// not by memory.
type Expansion struct {
	Spec *Spec
	// Platforms are the resolved platforms: named presets first, then
	// inline specs, in spec order.
	Platforms []*platform.Platform
	// Cells are the aggregation cells in expansion order.
	Cells []*Cell

	// The lazy point-generation state: the global order is cell-major,
	// then NPTGs, then repetition, then platform — the exact enumeration
	// order of experiment.Run, so aggregation reduces bit-identically.
	nptgs     []int
	reps      int
	perCell   int // points per cell = len(nptgs) * reps * len(Platforms)
	numPoints int

	// digest seeds per-point event timelines: TimelineFor hashes (digest,
	// point index), so timelines are invariant under sharding and
	// execution order.
	digest string
}

// Engine-level expansion caps: Expand refuses sweeps whose cartesian
// cardinality exceeds them, and it computes the cardinality arithmetically
// (EstimatePoints) before materializing anything, so an absurd spec fails
// in microseconds instead of exhausting memory.
const (
	// MaxCells bounds the number of aggregation cells of one expansion
	// (cells are the only materialized axis).
	MaxCells = 100_000
	// MaxPoints bounds the number of scenario points of one expansion.
	// Points are generated lazily and the store keeps one bit per point
	// during a sweep, so the *sweep* is disk-bounded — but the final
	// bit-exact aggregation still holds 3 float64 slots per (point,
	// strategy) (see Aggregator), so the cap reflects that reduction
	// footprint (~2.4 GB per strategy column at the cap), not the old
	// materialize-every-Point limit it replaces (which sat at 2M).
	MaxPoints = 100_000_000
)

// EstimatePoints computes the expansion cardinality of a spec — cells and
// points — without materializing it, mirroring Expand's enumeration
// arithmetic. Callers with tighter budgets than the engine caps (the
// service endpoint) reject oversized specs before Expand allocates.
// Name resolution is not performed; invalid names still fail in Expand.
func EstimatePoints(spec *Spec) (cells, points int, err error) {
	if err := spec.validate(); err != nil {
		return 0, 0, err
	}
	reps := spec.Reps
	if reps == 0 {
		reps = 25
	}
	nptgs := len(spec.NPTGs)
	if nptgs == 0 {
		nptgs = 5
	}
	platforms := len(spec.Platforms) + len(spec.PlatformSpecs)
	if platforms == 0 {
		platforms = 4
	}

	onlineCells := 1
	if o := spec.Online; o != nil {
		procs := o.Processes
		if len(procs) == 0 {
			procs = []string{"poisson"}
		}
		rates := len(o.Rates)
		if rates == 0 {
			rates = 1
		}
		onlineCells = 0
		for _, p := range procs {
			if strings.EqualFold(p, "burst") {
				onlineCells++ // burst collapses the rate axis
			} else {
				onlineCells += rates
			}
		}
	}

	// A non-empty events axis crosses every cell with the rescheduling
	// policies (default: restart only); an empty or absent one adds no
	// axis at all, keeping the expansion identical to a spec without the
	// field.
	policyCells := 1
	if !spec.Events.Empty() && len(spec.Events.Policies) > 0 {
		policyCells = len(spec.Events.Policies)
	}

	families := spec.Families
	if len(families) == 0 {
		families = []FamilySpec{{Family: "random"}}
	}
	axis := func(set, def int) int {
		if set > 0 {
			return set
		}
		return def
	}
	// mulCap multiplies with saturation just above the caps, so absurd
	// axis cardinalities cannot overflow int before the bound checks.
	const sat = MaxPoints + 1
	mulCap := func(a, b int) int {
		if a >= sat || b >= sat || a*b >= sat {
			return sat
		}
		return a * b
	}
	for _, f := range families {
		grid := 1
		if f.gridded() {
			switch strings.ToLower(f.Family) {
			case "fft":
				grid = len(f.K)
			case "random":
				grid = axis(len(f.Tasks), len(daggen.PaperTaskCounts))
				grid = mulCap(grid, axis(len(f.Widths), len(daggen.PaperWidths)))
				grid = mulCap(grid, axis(len(f.Regularities), len(daggen.PaperRegularities)))
				grid = mulCap(grid, axis(len(f.Densities), len(daggen.PaperDensities)))
				grid = mulCap(grid, axis(len(f.Jumps), len(daggen.PaperJumps)))
				grid = mulCap(grid, axis(len(f.Complexities), 1))
			}
		}
		cells += mulCap(mulCap(grid, onlineCells), policyCells)
		if cells > MaxCells {
			return 0, 0, fmt.Errorf("scenario: spec expands to over %d cells", MaxCells)
		}
	}
	points = mulCap(mulCap(mulCap(cells, nptgs), reps), platforms)
	if points > MaxPoints {
		return 0, 0, fmt.Errorf("scenario: spec expands to over %d points", MaxPoints)
	}
	return cells, points, nil
}

// Expand resolves a spec against the platform/family/strategy registries
// and enumerates its full scenario sweep.
func Expand(spec *Spec) (*Expansion, error) {
	if _, _, err := EstimatePoints(spec); err != nil {
		return nil, err
	}
	e := &Expansion{Spec: spec}

	reps := spec.Reps
	if reps == 0 {
		reps = 25
	}
	nptgs := spec.NPTGs
	if len(nptgs) == 0 {
		nptgs = []int{2, 4, 6, 8, 10}
	}

	// Platforms: named presets, then inline specs.
	if len(spec.Platforms) == 0 && len(spec.PlatformSpecs) == 0 {
		e.Platforms = platform.Grid5000Sites()
	} else {
		for _, name := range spec.Platforms {
			pf, err := platform.ByName(name)
			if err != nil {
				return nil, fmt.Errorf("scenario: %w", err)
			}
			e.Platforms = append(e.Platforms, pf)
		}
		for _, ps := range spec.PlatformSpecs {
			specs := make([]platform.ClusterSpec, len(ps.Clusters))
			for i, c := range ps.Clusters {
				specs[i] = platform.ClusterSpec{Name: c.Name, Procs: c.Procs, Speed: c.Speed}
			}
			e.Platforms = append(e.Platforms, platform.New(ps.Name, ps.SharedSwitch, specs...))
		}
	}

	families := spec.Families
	if len(families) == 0 {
		families = []FamilySpec{{Family: "random"}}
	}

	onlineCells, err := expandOnline(spec.Online)
	if err != nil {
		return nil, err
	}

	// The rescheduling-policy axis of a non-empty events timeline. A point
	// must always be able to finish, so a spec whose scripted permanent
	// failures cover every cluster of some platform is rejected here, with
	// the platforms resolved.
	policies := []string{""}
	if !spec.Events.Empty() {
		policies = spec.Events.Policies
		if len(policies) == 0 {
			policies = []string{"restart"}
		}
		for _, pf := range e.Platforms {
			if len(spec.Events.PermanentDowns(len(pf.Clusters))) == len(pf.Clusters) {
				return nil, fmt.Errorf("scenario: events fail every cluster of platform %q permanently; points there could never finish", pf.Name)
			}
		}
	}

	// Cells: family entries × grid points × arrival points × rescheduling
	// policies, in spec order.
	for _, f := range families {
		gridCells, err := expandFamily(f)
		if err != nil {
			return nil, err
		}
		for _, gc := range gridCells {
			strats, labels, err := resolveStrategies(spec.Strategies, gc.family)
			if err != nil {
				return nil, err
			}
			for _, oc := range onlineCells {
				for _, pol := range policies {
					label := gc.label
					if oc != nil {
						label += "+" + oc.Process.String()
						if oc.Process != workload.Burst {
							label += fmt.Sprintf("@%g", oc.Rate)
						}
					}
					if pol != "" {
						label += fmt.Sprintf("+dyn[%s]", pol)
					}
					cell := &Cell{
						Index:  len(e.Cells),
						Label:  label,
						Family: gc.family,
						Online: oc,
						Policy: pol,
						Config: experiment.Config{
							Family:     gc.family,
							NPTGs:      nptgs,
							Reps:       reps,
							Platforms:  e.Platforms,
							Strategies: strats,
							Labels:     labels,
							Seed:       spec.Seed,
							Gen:        gc.gen,
						},
					}
					e.Cells = append(e.Cells, cell)
				}
			}
		}
	}

	// Points are not materialized: the global enumeration the shard
	// partition and aggregation are defined over is arithmetic — PointAt
	// decomposes any index into (cell, nidx, rep, platform) in O(1).
	e.nptgs = nptgs
	e.reps = reps
	e.perCell = len(nptgs) * reps * len(e.Platforms)
	e.numPoints = len(e.Cells) * e.perCell
	e.digest = SpecDigest(spec)
	return e, nil
}

// Digest returns SpecDigest of the spec the expansion was made from,
// computed once by Expand.
func (e *Expansion) Digest() string { return e.digest }

// TimelineFor draws the event timeline point p runs under: a pure function
// of (spec digest, point index), so the same point gets the same timeline
// on any shard, at any worker count, in any execution order. Static specs
// (absent or empty events axis) yield nil.
func (e *Expansion) TimelineFor(p Point) events.Timeline {
	if e.Spec.Events.Empty() {
		return nil
	}
	pf := e.Platforms[p.Platform]
	r := rand.New(rand.NewSource(eventSeed(e.digest, p.Index)))
	return e.Spec.Events.Generate(len(pf.Clusters), p.NPTGs, r)
}

// eventSeed hashes the spec digest and a point index into the timeline
// seed (FNV-64a; any stable mixing works, it only has to be deterministic
// and spread).
func eventSeed(digest string, index int) int64 {
	h := fnv.New64a()
	io.WriteString(h, digest)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(index))
	h.Write(b[:])
	return int64(h.Sum64())
}

// NumPoints returns the expansion cardinality: the number of scenario
// points of the sweep.
func (e *Expansion) NumPoints() int { return e.numPoints }

// PointAt generates the point with global index i in O(1): the index is
// decomposed along the cell-major enumeration order (cell, then NPTGs,
// then repetition, then platform) and the point's name and seed are
// derived from the decomposition. It panics on an out-of-range index.
func (e *Expansion) PointAt(i int) Point {
	if i < 0 || i >= e.numPoints {
		panic(fmt.Sprintf("scenario: point index %d outside [0,%d)", i, e.numPoints))
	}
	cell := i / e.perCell
	rem := i % e.perCell
	nPf := len(e.Platforms)
	ni := rem / (e.reps * nPf)
	rem %= e.reps * nPf
	rep := rem / nPf
	pi := rem % nPf
	n := e.nptgs[ni]
	return Point{
		Index:    i,
		Cell:     cell,
		NIdx:     ni,
		Rep:      rep,
		Platform: pi,
		NPTGs:    n,
		Name: fmt.Sprintf("%s/n=%d/rep=%d/%s",
			e.Cells[cell].Label, n, rep, e.Platforms[pi].Name),
		Seed: experiment.RunSeed(e.Spec.Seed, ni, rep),
	}
}

// CellOf returns the cell index of point i without generating the point
// (no name formatting); it is the O(1) identity check the aggregator and
// the store validate incoming results against.
func (e *Expansion) CellOf(i int) int {
	if i < 0 || i >= e.numPoints {
		panic(fmt.Sprintf("scenario: point index %d outside [0,%d)", i, e.numPoints))
	}
	return i / e.perCell
}

// CellRange returns the half-open global-index range [lo, hi) of cell ci's
// points. The enumeration is cell-major, so every cell is one contiguous
// index run — the arithmetic a query planner maps cell predicates onto
// byte ranges with.
func (e *Expansion) CellRange(ci int) (lo, hi int) {
	if ci < 0 || ci >= len(e.Cells) {
		panic(fmt.Sprintf("scenario: cell index %d outside [0,%d)", ci, len(e.Cells)))
	}
	return ci * e.perCell, (ci + 1) * e.perCell
}

// gridCell is one family grid point before strategy/arrival resolution.
type gridCell struct {
	family daggen.Family
	label  string
	gen    func(g *dag.Graph, r *rand.Rand)
}

// expandFamily enumerates a family entry's parameter grid. Ungridded
// entries produce one cell drawing every parameter per graph (the paper's
// protocol, gen nil); gridded entries cartesian-expand their axes, absent
// random axes defaulting to the paper's full value lists.
func expandFamily(f FamilySpec) ([]gridCell, error) {
	fam, err := daggen.FamilyByName(f.Family)
	if err != nil {
		return nil, err
	}
	if !f.gridded() {
		return []gridCell{{family: fam, label: fam.String()}}, nil
	}
	switch fam {
	case daggen.FamilyStrassen:
		return nil, fmt.Errorf("scenario: the strassen family has no grid axes")
	case daggen.FamilyFFT:
		var cells []gridCell
		for _, k := range f.K {
			if k < 1 || k > 10 {
				return nil, fmt.Errorf("scenario: fft exponent k=%d outside [1,10]", k)
			}
			cells = append(cells, gridCell{
				family: fam,
				label:  fmt.Sprintf("fft[k=%d]", k),
				gen:    func(g *dag.Graph, r *rand.Rand) { daggen.FFTInto(g, k, r) },
			})
		}
		return cells, nil
	}

	// Random family: absent axes take the paper's full lists.
	tasks := []int(f.Tasks)
	if len(tasks) == 0 {
		tasks = daggen.PaperTaskCounts
	}
	widths := []float64(f.Widths)
	if len(widths) == 0 {
		widths = daggen.PaperWidths
	}
	regs := []float64(f.Regularities)
	if len(regs) == 0 {
		regs = daggen.PaperRegularities
	}
	dens := []float64(f.Densities)
	if len(dens) == 0 {
		dens = daggen.PaperDensities
	}
	jumps := []int(f.Jumps)
	if len(jumps) == 0 {
		jumps = daggen.PaperJumps
	}
	complexities := f.Complexities
	if len(complexities) == 0 {
		complexities = []string{"mixed"}
	}
	var cells []gridCell
	for _, t := range tasks {
		for _, w := range widths {
			for _, reg := range regs {
				for _, d := range dens {
					for _, j := range jumps {
						for _, cname := range complexities {
							mode, err := daggen.ComplexityByName(cname)
							if err != nil {
								return nil, err
							}
							cfg := daggen.RandomConfig{
								Tasks: t, Width: w, Regularity: reg,
								Density: d, Jump: j, Complexity: mode,
							}
							if err := cfg.Validate(); err != nil {
								return nil, fmt.Errorf("scenario: %w", err)
							}
							cells = append(cells, gridCell{
								family: fam,
								label: fmt.Sprintf("random[t=%d w=%g r=%g d=%g j=%d %s]",
									t, w, reg, d, j, mode),
								gen: func(g *dag.Graph, r *rand.Rand) { daggen.RandomInto(g, cfg, r) },
							})
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// expandOnline enumerates the arrival-process axis; a nil spec yields the
// single offline cell (nil OnlineCell).
func expandOnline(o *OnlineSpec) ([]*OnlineCell, error) {
	if o == nil {
		return []*OnlineCell{nil}, nil
	}
	procs := o.Processes
	if len(procs) == 0 {
		procs = []string{"poisson"}
	}
	rates := []float64(o.Rates)
	if len(rates) == 0 {
		rates = []float64{0.25}
	}
	var cells []*OnlineCell
	for _, pname := range procs {
		p, err := workload.ProcessByName(pname)
		if err != nil {
			return nil, err
		}
		if p == workload.Burst {
			// Burst ignores the rate; one cell regardless of the axis.
			cells = append(cells, &OnlineCell{Process: p})
			continue
		}
		for _, r := range rates {
			cells = append(cells, &OnlineCell{Process: p, Rate: r})
		}
	}
	return cells, nil
}

// resolveStrategies resolves the spec's strategy set (default: the paper's
// set for the family) into aligned strategy and label slices.
func resolveStrategies(specs []StrategySpec, fam daggen.Family) ([]strategy.Strategy, []string, error) {
	if len(specs) == 0 {
		set := strategy.PaperSet(fam)
		labels := make([]string, len(set))
		for i, s := range set {
			labels[i] = s.Name()
		}
		return set, labels, nil
	}
	strats := make([]strategy.Strategy, len(specs))
	labels := make([]string, len(specs))
	for i, ss := range specs {
		mu := -1.0
		if ss.Mu != nil {
			mu = *ss.Mu
		}
		st, err := strategy.ByName(ss.Name, mu, fam)
		if err != nil {
			return nil, nil, err
		}
		strats[i] = st
		labels[i] = ss.Label
		if labels[i] == "" {
			labels[i] = st.Name()
		}
	}
	return strats, labels, nil
}

// ParseShard parses a shard selector of the form "i/n" (0 ≤ i < n).
// Trailing or malformed input is rejected outright — a typo must not
// silently run the wrong shard.
func ParseShard(s string) (idx, n int, err error) {
	num, den, ok := strings.Cut(strings.TrimSpace(s), "/")
	if ok {
		idx, err = strconv.Atoi(num)
		if err == nil {
			n, err = strconv.Atoi(den)
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("scenario: shard %q is not of the form i/n", s)
	}
	if n < 1 || idx < 0 || idx >= n {
		return 0, 0, fmt.Errorf("scenario: shard %d/%d out of range", idx, n)
	}
	return idx, n, nil
}

// IndexSet selects a subset of an expansion's global point indices by
// predicate instead of by materialized slice: the indices i with
// Offset ≤ i < Limit and i ≡ Offset (mod Stride). It is the shape of every
// point selection in the pipeline — the full sweep (Stride 1), one shard
// of n (Stride n), or a prefix (Limit < NumPoints) — and it costs three
// ints regardless of how many points it selects.
type IndexSet struct {
	// Limit is the exclusive upper bound on selected indices (normally the
	// expansion's NumPoints).
	Limit int
	// Offset is the first selected index.
	Offset int
	// Stride is the step between selected indices; values below 1 are
	// treated as 1, so the zero value with a Limit is a plain prefix.
	Stride int
}

// stride normalizes the step.
func (s IndexSet) stride() int {
	if s.Stride < 1 {
		return 1
	}
	return s.Stride
}

// Len returns the number of selected indices.
func (s IndexSet) Len() int {
	if s.Limit <= s.Offset {
		return 0
	}
	return (s.Limit-s.Offset-1)/s.stride() + 1
}

// At returns the j-th selected index (0 ≤ j < Len()), in increasing order.
func (s IndexSet) At(j int) int { return s.Offset + j*s.stride() }

// Contains reports whether the set selects global index i.
func (s IndexSet) Contains(i int) bool {
	return i >= s.Offset && i < s.Limit && (i-s.Offset)%s.stride() == 0
}

// All selects every point of the expansion.
func (e *Expansion) All() IndexSet {
	return IndexSet{Limit: e.numPoints, Stride: 1}
}

// Shard returns the index set of shard idx of n: the points whose global
// index is congruent to idx modulo n. The n shards partition the expansion
// exactly; running them anywhere and recombining their JSONL outputs
// aggregates bit-identically to one unsharded run.
func (e *Expansion) Shard(idx, n int) (IndexSet, error) {
	if n < 1 || idx < 0 || idx >= n {
		return IndexSet{}, fmt.Errorf("scenario: shard %d/%d out of range", idx, n)
	}
	return IndexSet{Limit: e.numPoints, Offset: idx, Stride: n}, nil
}
