package scenario

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"ptgsched/internal/core"
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

// sweepAxes is a spec with every default applied: the run grid all cells
// share, and the lists Expand crosses into cells. EstimatePoints counts
// exactly these lists, so the count and the enumeration cannot disagree.
type sweepAxes struct {
	// grid is the defaulted experiment.Config every cell copies: its
	// NPTGs, Reps, Platforms and Seed. The platform slots of a spec that
	// names platforms are nil until Expand resolves them; a spec naming
	// none gets the protocol's sites.
	grid experiment.Config
	// families are the spec's family entries, random grids completed with
	// the paper's lists.
	families []FamilySpec
	// processes and rates are the arrival axis; processes is nil for an
	// offline spec.
	processes []string
	rates     []float64
	// policies is the rescheduling-policy axis: {""} for a static spec.
	policies []string
}

// axesOf applies the defaults to a validated spec.
func axesOf(spec *Spec) *sweepAxes {
	a := &sweepAxes{
		grid: experiment.Config{
			NPTGs:     spec.NPTGs,
			Reps:      spec.Reps,
			Platforms: make([]*platform.Platform, len(spec.Platforms)+len(spec.PlatformSpecs)),
			Seed:      spec.Seed,
		}.Defaults(),
		families: []FamilySpec{{Family: "random"}},
		policies: []string{""},
	}
	if len(spec.Families) > 0 {
		a.families = make([]FamilySpec, len(spec.Families))
		for i, f := range spec.Families {
			a.families[i] = f.withPaperAxes()
		}
	}
	if o := spec.Online; o != nil {
		a.processes, a.rates = o.Processes, o.Rates
		if len(a.processes) == 0 {
			a.processes = []string{"poisson"}
		}
		if len(a.rates) == 0 {
			a.rates = []float64{0.25}
		}
	}
	// A non-empty events axis crosses every cell with the rescheduling
	// policies; an empty or absent one adds no axis at all, keeping the
	// expansion identical to a spec without the field.
	if !spec.Events.Empty() {
		a.policies = spec.Events.Policies
		if len(a.policies) == 0 {
			a.policies = []string{"restart"}
		}
	}
	return a
}

// withPaperAxes returns the entry with each absent axis of a random grid
// set to the paper's full list (§2); any other entry is returned as is.
func (f FamilySpec) withPaperAxes() FamilySpec {
	if !f.gridded() {
		return f
	}
	if len(f.Tasks) == 0 {
		f.Tasks = daggen.PaperTaskCounts
	}
	if len(f.Widths) == 0 {
		f.Widths = daggen.PaperWidths
	}
	if len(f.Regularities) == 0 {
		f.Regularities = daggen.PaperRegularities
	}
	if len(f.Densities) == 0 {
		f.Densities = daggen.PaperDensities
	}
	if len(f.Jumps) == 0 {
		f.Jumps = daggen.PaperJumps
	}
	if len(f.Complexities) == 0 {
		f.Complexities = []string{"mixed"}
	}
	return f
}

// arrival resolves one arrival process and the rates it sweeps: burst
// ignores the rate, so it sweeps one cell at rate 0.
func (a *sweepAxes) arrival(name string) (workload.Process, []float64, error) {
	p, err := workload.ProcessByName(name)
	if err == nil && p == workload.Burst {
		return p, []float64{0}, nil
	}
	return p, a.rates, err
}

// count computes the expansion's cells and points arithmetically and
// refuses a sweep over the engine caps.
func (a *sweepAxes) count() (cells, points int, err error) {
	// mul multiplies with saturation just above the caps, so absurd axis
	// cardinalities cannot overflow int before the bound checks.
	const sat = MaxPoints + 1
	mul := func(a, b int) int {
		if a >= sat || b >= sat || a*b >= sat {
			return sat
		}
		return a * b
	}
	arrivals := 1
	if a.processes != nil {
		arrivals = 0
		for _, name := range a.processes {
			// An unknown process counts its rates; Expand reports the name.
			_, rates, _ := a.arrival(name)
			arrivals += len(rates)
		}
	}
	for _, f := range a.families {
		// The entry's grid cells: the product of its axis lengths, an
		// absent axis counting once.
		grid := 1
		for _, n := range []int{len(f.Tasks), len(f.Widths), len(f.Regularities),
			len(f.Densities), len(f.Jumps), len(f.Complexities), len(f.K)} {
			grid = mul(grid, max(n, 1))
		}
		cells += mul(mul(grid, arrivals), len(a.policies))
		if cells > MaxCells {
			return 0, 0, fmt.Errorf("scenario: spec expands to over %d cells", MaxCells)
		}
	}
	points = mul(mul(mul(cells, len(a.grid.NPTGs)), a.grid.Reps), len(a.grid.Platforms))
	if points > MaxPoints {
		return 0, 0, fmt.Errorf("scenario: spec expands to over %d points", MaxPoints)
	}
	return cells, points, nil
}

// EstimatePoints computes the expansion cardinality of a spec — cells and
// points — without materializing it: it counts the defaulted axes Expand
// enumerates. Callers with tighter budgets than the engine caps (the
// service endpoint) reject oversized specs before Expand allocates.
// Name resolution is not performed; invalid names still fail in Expand.
func EstimatePoints(spec *Spec) (cells, points int, err error) {
	if err := spec.validate(); err != nil {
		return 0, 0, err
	}
	return axesOf(spec).count()
}

// Expand resolves a spec against the platform/family/strategy registries
// and enumerates its full scenario sweep.
func Expand(spec *Spec) (*Expansion, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	a := axesOf(spec)
	if _, _, err := a.count(); err != nil {
		return nil, err
	}
	e := &Expansion{Spec: spec, Platforms: a.grid.Platforms}

	// Platforms: named presets, then inline specs, into the grid's slots.
	for i, name := range spec.Platforms {
		pf, err := platform.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		e.Platforms[i] = pf
	}
	for i, ps := range spec.PlatformSpecs {
		specs := make([]platform.ClusterSpec, len(ps.Clusters))
		for j, c := range ps.Clusters {
			specs[j] = platform.ClusterSpec{Name: c.Name, Procs: c.Procs, Speed: c.Speed}
		}
		e.Platforms[len(spec.Platforms)+i] = platform.New(ps.Name, ps.SharedSwitch, specs...)
	}

	// Arrivals: the one offline cell, or each process at each of its rates.
	arrivals := []*OnlineCell{nil}
	if a.processes != nil {
		arrivals = nil
		for _, name := range a.processes {
			p, rates, err := a.arrival(name)
			if err != nil {
				return nil, err
			}
			for _, r := range rates {
				arrivals = append(arrivals, &OnlineCell{Process: p, Rate: r})
			}
		}
	}

	// A point must always be able to finish, so a spec whose scripted
	// permanent failures cover every cluster of some platform is rejected
	// here, with the platforms resolved.
	if !spec.Events.Empty() {
		for _, pf := range e.Platforms {
			if len(spec.Events.PermanentDowns(len(pf.Clusters))) == len(pf.Clusters) {
				return nil, fmt.Errorf("scenario: events fail every cluster of platform %q permanently; points there could never finish", pf.Name)
			}
		}
	}

	// Cells: family entries × grid points × arrival points × rescheduling
	// policies, in spec order.
	for _, f := range a.families {
		gridCells, err := expandFamily(f)
		if err != nil {
			return nil, err
		}
		for _, gc := range gridCells {
			cfg := a.grid
			cfg.Family, cfg.Gen = gc.family, gc.gen
			if cfg.Strategies, cfg.Labels, err = resolveStrategies(spec.Strategies, gc.family); err != nil {
				return nil, err
			}
			cfg = cfg.Defaults()
			for _, oc := range arrivals {
				for _, pol := range a.policies {
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
					e.Cells = append(e.Cells, &Cell{
						Index:  len(e.Cells),
						Label:  label,
						Family: gc.family,
						Online: oc,
						Policy: pol,
						Config: cfg,
					})
				}
			}
		}
	}

	// Points are not materialized: the global enumeration the shard
	// partition and aggregation are defined over is arithmetic — PointAt
	// decomposes any index into (cell, nidx, rep, platform) in O(1).
	e.nptgs = a.grid.NPTGs
	e.reps = a.grid.Reps
	e.perCell = len(e.nptgs) * e.reps * len(e.Platforms)
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
	return e.timelineOn(nil, p)
}

// timelineOn is TimelineFor drawing from sc's seeded source
// (core.Scratch.Rand), the same draws as a fresh source's; a nil sc draws
// from a fresh source.
func (e *Expansion) timelineOn(sc *core.Scratch, p Point) events.Timeline {
	if e.Spec.Events.Empty() {
		return nil
	}
	seed := eventSeed(e.digest, p.Index)
	var r *rand.Rand
	if sc != nil {
		r = sc.Rand(seed)
	} else {
		r = rand.New(rand.NewSource(seed))
	}
	pf := e.Platforms[p.Platform]
	return e.Spec.Events.Generate(len(pf.Clusters), p.NPTGs, r)
}

// eventSeed hashes the spec digest and a point index into the timeline
// seed: FNV-64a over the digest's bytes, then the index's eight
// little-endian bytes (any stable mixing works, it only has to be
// deterministic and spread). It is hash/fnv's New64a over those bytes,
// computed in place so that a point allocates no hasher.
func eventSeed(digest string, index int) int64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(digest); i++ {
		h ^= uint64(digest[i])
		h *= prime64
	}
	for i, x := 0, uint64(index); i < 8; i, x = i+1, x>>8 {
		h ^= x & 0xff
		h *= prime64
	}
	return int64(h)
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

// expandFamily enumerates a family entry whose axes axesOf completed: an
// entry with no axis is one cell drawing every parameter per graph (the
// paper's protocol, gen nil), an fft entry gets one cell per k and a
// random grid the cartesian product of its axes.
func expandFamily(f FamilySpec) ([]gridCell, error) {
	fam, err := daggen.FamilyByName(f.Family)
	if err != nil {
		return nil, err
	}
	if len(f.K) == 0 && !f.gridded() {
		return []gridCell{{family: fam, label: fam.String()}}, nil
	}
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
	for _, t := range f.Tasks {
		for _, w := range f.Widths {
			for _, reg := range f.Regularities {
				for _, d := range f.Densities {
					for _, j := range f.Jumps {
						for _, cname := range f.Complexities {
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

// resolveStrategies resolves the spec's strategy set into aligned strategy
// and label slices; an empty set stays empty, and the cell's
// Config.Defaults fills in the family's paper set.
func resolveStrategies(specs []StrategySpec, fam daggen.Family) ([]strategy.Strategy, []string, error) {
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
