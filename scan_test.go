package ptgsched_test

// One typed pass over the source: every non-test package of the module
// and of the benchmark module under bench/ is parsed and type-checked
// once, and the source checks of this package (the fused multiply-add
// scan, and the traffic, invariant, clock and exit checks below) all read
// that pass.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// sourcePackage is one type-checked non-test package.
type sourcePackage struct {
	dir   string // slash-separated, relative to the module root ("." for the facade)
	main  bool
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// sourceTree is the whole pass: packages in dependency order.
type sourceTree struct {
	fset *token.FileSet
	pkgs []*sourcePackage
}

var (
	sourceOnce sync.Once
	sourceErr  error
	source     *sourceTree
)

// loadSource returns the pass, running it on first use.
func loadSource(t *testing.T) *sourceTree {
	t.Helper()
	sourceOnce.Do(func() { source, sourceErr = checkSource() })
	if sourceErr != nil {
		t.Fatal(sourceErr)
	}
	return source
}

// treeImporter answers the module's packages from the pass and the
// standard library from source.
type treeImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (m treeImporter) Import(path string) (*types.Package, error) {
	if p := m.checked[path]; p != nil {
		return p, nil
	}
	if strings.HasPrefix(path, "ptgsched/") {
		return nil, fmt.Errorf("%s imported before it was checked", path)
	}
	return m.std.Import(path)
}

// checkSource lists every directory of the module holding non-test Go
// files for this GOOS/GOARCH (bench/ included: its module path,
// ptgsched/bench, is the directory's own), then type-checks them in
// dependency order, each once.
func checkSource() (*sourceTree, error) {
	// The source importer type-checks the standard library through
	// build.Default. Without cgo, net (which service reaches through
	// net/http) type-checks from its pure-Go files, which declare the same
	// API; with it, a GOARCH=386 run on an amd64 host needs a 32-bit C
	// toolchain.
	build.Default.CgoEnabled = false
	bps := make(map[string]*build.Package) // by import path
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		bps[importPath(filepath.ToSlash(path))] = bp
		return nil
	})
	if err != nil {
		return nil, err
	}
	var order []string
	state := make(map[string]int) // 1 visiting, 2 done
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case 1:
			return fmt.Errorf("import cycle through %s", path)
		case 2:
			return nil
		}
		state[path] = 1
		for _, imp := range bps[path].Imports {
			if bps[imp] != nil {
				if err := visit(imp); err != nil {
					return err
				}
			}
		}
		state[path] = 2
		order = append(order, path)
		return nil
	}
	paths := make([]string, 0, len(bps))
	for p := range bps {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}

	tree := &sourceTree{fset: token.NewFileSet()}
	imp := treeImporter{checked: make(map[string]*types.Package), std: importer.ForCompiler(tree.fset, "source", nil)}
	conf := types.Config{Importer: imp}
	for _, path := range order {
		bp := bps[path]
		sp := &sourcePackage{dir: filepath.ToSlash(bp.Dir), main: bp.Name == "main"}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(tree.fset, filepath.Join(bp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			sp.files = append(sp.files, f)
		}
		sp.info = &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
		}
		if sp.types, err = conf.Check(path, tree.fset, sp.files, sp.info); err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", sp.dir, err)
		}
		imp.checked[path] = sp.types
		tree.pkgs = append(tree.pkgs, sp)
	}
	return tree, nil
}

// importPath is the import path of a directory of the module.
func importPath(dir string) string {
	if dir == "." {
		return "ptgsched"
	}
	return "ptgsched/" + dir
}

// funcName names a declaration as a reader finds it: "F", "T.M" or
// "(*T).M".
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, true
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	recv := typ.(*ast.Ident).Name
	if star {
		return "(*" + recv + ")." + fd.Name.Name
	}
	return recv + "." + fd.Name.Name
}

// siteCounts counts, per "dir Func" of the enclosing declaration, the
// identifiers of the given packages that use an object match accepts.
func siteCounts(tree *sourceTree, inScope func(*sourcePackage) bool, match func(*ast.Ident, types.Object, *ast.File) bool) map[string]int {
	found := make(map[string]int)
	for _, sp := range tree.pkgs {
		if !inScope(sp) {
			continue
		}
		for _, f := range sp.files {
			for _, decl := range f.Decls {
				where := sp.dir + " package scope"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					where = sp.dir + " " + funcName(fd)
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if o := sp.info.Uses[id]; o != nil && match(id, o, f) {
							found[where]++
						}
					}
					return true
				})
			}
		}
	}
	return found
}

// requireCounts compares found against an allowlist that may only
// shrink: a site past its entry fails, and so does an entry above what is
// found, which must be lowered in the same change that removed the site.
func requireCounts(t *testing.T, what string, found, allowed map[string]int) {
	t.Helper()
	keys := make([]string, 0, len(found)+len(allowed))
	for k := range found {
		keys = append(keys, k)
	}
	for k := range allowed {
		if _, ok := found[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch got, want := found[k], allowed[k]; {
		case got > want:
			t.Errorf("%s: %d %s, allowlist has %d", k, got, what, want)
		case got < want:
			t.Errorf("%s: %d %s, allowlist still has %d: shrink the entry", k, got, what, want)
		}
	}
}

// trafficExempt lists the test-support packages: their traffic is tests.
var trafficExempt = []string{"internal/faultinject", "internal/clitest"}

// keepList holds the exported functions and methods of internal/ kept
// without a non-test caller, each with why. It may only shrink: an entry
// whose function gained a caller or is gone fails the check.
var keepList = map[string]string{
	"alloc.Allocation.Respected":    "the β-respect count that ROADMAP item 12's paper-claims ledger will read",
	"dag.Graph.TopLevels":           "the full top-level pass, kept on purpose beside the incremental dag.Levels (ROADMAP item 9)",
	"scenario.Expansion.Aggregate":  "the one-call aggregate over an expansion, kept on purpose (ROADMAP item 9)",
	"events.Timeline.DownIntervals": "the input of the dynamic trace oracle",
	"mapping.Schedule.Makespan":     "the mapper's per-application estimate: public as ptgsched.Schedule, and the mapper tests pin it",
	"scenario.IndexSet.Contains":    "four tests assert shard membership with it; deleting it moves the same line into each",
	"service.Service.WaitJob":       "the library's way to wait for a job",
	"sim.Event.Cancel":              "the reference net in sim/oracle_test.go cancels events",
	"sim.FlowNet.RegisteredLinks":   "simexec's scratch test seam (ROADMAP item 9)",
	"strategy.Names":                "the registry the invariant fuzzers iterate",
}

// TestExportedNamesHaveTraffic: every exported function and method
// declared in internal/ has a non-test caller in the module or in bench/,
// satisfies an interface (so it may be called through one), or is on
// keepList. A call from inside its own body does not count.
func TestExportedNamesHaveTraffic(t *testing.T) {
	tree := loadSource(t)
	type candidate struct {
		name string
		decl *ast.FuncDecl
	}
	candidates := make(map[*types.Func]candidate)
	for _, sp := range tree.pkgs {
		if !strings.HasPrefix(sp.dir, "internal/") || slices.Contains(trafficExempt, sp.dir) {
			continue
		}
		for _, f := range sp.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				name := sp.types.Name() + "." + strings.NewReplacer("(*", "", ")", "").Replace(funcName(fd))
				candidates[sp.info.Defs[fd.Name].(*types.Func)] = candidate{name, fd}
			}
		}
	}
	called := make(map[*types.Func]bool)
	for _, sp := range tree.pkgs {
		for id, o := range sp.info.Uses {
			fn, ok := o.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if c, ok := candidates[fn]; ok && (id.Pos() < c.decl.Pos() || id.Pos() >= c.decl.End()) {
				called[fn] = true
			}
		}
	}
	ifaces := interfaces(tree)
	seen := make(map[string]bool)
	for fn, c := range candidates {
		if implementsSome(fn, ifaces) {
			continue
		}
		seen[c.name] = true
		_, kept := keepList[c.name]
		switch {
		case !called[fn] && !kept:
			t.Errorf("%s: %s has no non-test caller in the module or bench/; delete it, or keep-list it with why",
				tree.fset.Position(c.decl.Pos()), c.name)
		case called[fn] && kept:
			t.Errorf("%s: %s is keep-listed but has a caller; drop its entry", tree.fset.Position(c.decl.Pos()), c.name)
		}
	}
	for name := range keepList {
		if !seen[name] {
			t.Errorf("keep-list entry %s names no uncalled exported function of internal/; drop it", name)
		}
	}
}

// interfaces returns every method-set interface declared at package
// level in the module or exported by a package it imports, error and the
// Unwrap() error that errors.Is and As call through included: a method
// satisfying one may be called through it.
func interfaces(tree *sourceTree) []*types.Interface {
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	out := []*types.Interface{
		errType.Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete(),
	}
	done := make(map[*types.Package]bool)
	add := func(p *types.Package, inModule bool) {
		if done[p] {
			return
		}
		done[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || !inModule && !tn.Exported() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
				out = append(out, it)
			}
		}
	}
	for _, sp := range tree.pkgs {
		add(sp.types, true)
	}
	for _, sp := range tree.pkgs {
		for _, p := range sp.types.Imports() {
			add(p, false)
		}
	}
	return out
}

// implementsSome reports whether fn is a method whose receiver type, or
// a pointer to it, implements an interface that declares fn's name.
func implementsSome(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	if n, ok := typ.(*types.Named); ok && n.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() {
				if types.Implements(typ, it) || types.Implements(types.NewPointer(typ), it) {
					return true
				}
				break
			}
		}
	}
	return false
}

// uncommentedPanics lists the panic sites of internal/ that carry no
// "// invariant:" comment on their line or the line above, per enclosing
// declaration. ROADMAP item 3 turns each into a typed error or an
// invariant comment; the list may only shrink.
var uncommentedPanics = map[string]int{
	"internal/alloc (*Allocation).violates":          1,
	"internal/alloc (*Traces).grow":                  3,
	"internal/alloc TranslateTo":                     1,
	"internal/bitset New":                            1,
	"internal/bitset Set.Set":                        1,
	"internal/cache KeyFor":                          1,
	"internal/core (*Result).evaluate":               1,
	"internal/core (*Scheduler).ScheduleWith":        1,
	"internal/cost AmdahlTime":                       2,
	"internal/cost Flops":                            2,
	"internal/cost SeqTime":                          1,
	"internal/dag (*Graph).BottomLevelsInto":         1,
	"internal/dag (*Graph).MustAddEdge":              1,
	"internal/dag (*Graph).PrecedenceLevels":         1,
	"internal/dag (*Graph).TopLevels":                1,
	"internal/dag (*Levels).build":                   1,
	"internal/daggen FFTInto":                        2,
	"internal/daggen GenerateInto":                   1,
	"internal/daggen RandomInto":                     2,
	"internal/daggen StrassenInto":                   1,
	"internal/daggen drawTaskParams":                 1,
	"internal/experiment Config.Defaults":            1,
	"internal/experiment Point.series":               1,
	"internal/mapping (*Schedule).Add":               1,
	"internal/mapping (*Scratch).Map":                1,
	"internal/mapping (*Scratch).loadFeeds":          1,
	"internal/mapping (*Scratch).place":              1,
	"internal/mapping (*Scratch).runReady":           1,
	"internal/metrics AvgSlowdown":                   1,
	"internal/metrics Mean":                          1,
	"internal/metrics RelativeMakespans":             1,
	"internal/metrics Slowdown":                      1,
	"internal/online (*scheduler).commit":            1,
	"internal/online (*scheduler).finish":            1,
	"internal/online (*scheduler).pushTimeline":      5,
	"internal/online newScheduler":                   4,
	"internal/platform (*Platform).TransferTime":     1,
	"internal/platform New":                          3,
	"internal/scenario (*Expansion).CellOf":          1,
	"internal/scenario (*Expansion).CellRange":       1,
	"internal/scenario (*Expansion).PointAt":         1,
	"internal/scenario (*Expansion).runDynamicPoint": 1,
	"internal/scenario SpecDigest":                   1,
	"internal/service (*counters).byKind":            1,
	"internal/sim (*Engine).After":                   1,
	"internal/sim (*Engine).At":                      2,
	"internal/sim (*Engine).Reschedule":              2,
	"internal/sim (*Engine).Run":                     1,
	"internal/sim (*FlowNet).Start":                  1,
	"internal/sim (*FlowNet).reshare":                1,
	"internal/sim (*fairShareSolver).solve":          1,
	"internal/sim NewLink":                           2,
	"internal/simexec (*Scratch).Execute":            1,
	"internal/simexec (*Scratch).buildFlows":         1,
	"internal/strategy DefaultMu":                    1,
	"internal/strategy Gamma":                        1,
	"internal/strategy Strategy.BetasInto":           2,
	"internal/strategy WPS":                          1,
	"internal/workload GenerateInto":                 4,
}

// TestPanicsStateTheirInvariant: a non-test panic in internal/ says, in
// an "// invariant:" comment on its line or the line above, why no input
// reaches it.
func TestPanicsStateTheirInvariant(t *testing.T) {
	tree := loadSource(t)
	panicObj := types.Universe.Lookup("panic")
	commented := make(map[*ast.File]map[int]bool)
	found := siteCounts(tree, func(sp *sourcePackage) bool { return strings.HasPrefix(sp.dir, "internal/") },
		func(id *ast.Ident, o types.Object, f *ast.File) bool {
			if o != panicObj {
				return false
			}
			lines := commented[f]
			if lines == nil {
				lines = make(map[int]bool)
				for _, cg := range f.Comments {
					for _, c := range cg.List {
						if strings.HasPrefix(c.Text, "// invariant:") {
							lines[tree.fset.Position(c.Pos()).Line] = true
						}
					}
				}
				commented[f] = lines
			}
			line := tree.fset.Position(id.Pos()).Line
			return !lines[line] && !lines[line-1]
		})
	requireCounts(t, "uncommented panic sites", found, uncommentedPanics)
}

// wallClockReads lists the wall-clock reads of internal/coord and
// internal/service per enclosing declaration. ROADMAP item 16 routes them
// through an injected clock; the list may only shrink.
var wallClockReads = map[string]int{
	"internal/coord (*Coordinator).Run":      1,
	"internal/coord (*Coordinator).dispatch": 1,
	"internal/coord (*Coordinator).poll":     2,
	"internal/coord NewClient":               1,
	"internal/service (*Service).CloseGrace": 1,
	"internal/service (*Service).Health":     1,
	"internal/service (*Service).Online":     2,
	"internal/service (*Service).Stats":      1,
	"internal/service (*Service).Workload":   2,
	"internal/service (*Service).campaign":   2,
	"internal/service (*Service).enqueueJob": 1,
	"internal/service (*Service).worker":     2,
	"internal/service (*jobHandle).setState": 2,
	"internal/service (*jobHandle).status":   1,
	"internal/service New":                   1,
	"internal/service scheduleScenario.run":  2,
	"internal/service submit":                1,
}

// TestNoWallClockInCoordAndService: the fleet coordinator and the service
// read time through no new time.Now, Since, After, Sleep, NewTimer or
// NewTicker.
func TestNoWallClockInCoordAndService(t *testing.T) {
	tree := loadSource(t)
	clock := []string{"Now", "Since", "After", "Sleep", "NewTimer", "NewTicker"}
	found := siteCounts(tree, func(sp *sourcePackage) bool { return sp.dir == "internal/coord" || sp.dir == "internal/service" },
		func(_ *ast.Ident, o types.Object, _ *ast.File) bool {
			fn, ok := o.(*types.Func)
			return ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" &&
				fn.Type().(*types.Signature).Recv() == nil && slices.Contains(clock, fn.Name())
		})
	requireCounts(t, "wall-clock reads", found, wallClockReads)
}

// TestProcessExitsOnlyInMain: os.Exit, log.Fatal* and log.Panic* end the
// process, so only a command may call them — a package main, or
// internal/cli, the commands' shared skeleton.
func TestProcessExitsOnlyInMain(t *testing.T) {
	tree := loadSource(t)
	found := siteCounts(tree, func(sp *sourcePackage) bool { return !sp.main && sp.dir != "internal/cli" },
		func(_ *ast.Ident, o types.Object, _ *ast.File) bool {
			fn, ok := o.(*types.Func)
			if !ok || fn.Pkg() == nil {
				return false
			}
			switch fn.Pkg().Path() {
			case "os":
				return fn.Name() == "Exit"
			case "log":
				return strings.HasPrefix(fn.Name(), "Fatal") || strings.HasPrefix(fn.Name(), "Panic")
			}
			return false
		})
	requireCounts(t, "process exits", found, nil)
}
