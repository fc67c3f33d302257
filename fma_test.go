package ptgsched_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// resultPackages are the directories of the packages whose float
// arithmetic reaches a result, a digest, a cache key, a wire response or a
// command's report.
var resultPackages = []string{
	"internal/alloc", "internal/core", "internal/cost", "internal/dag", "internal/daggen",
	"internal/events", "internal/experiment", "internal/mapping", "internal/metrics",
	"internal/online", "internal/platform", "internal/query", "internal/scenario",
	"internal/service", "internal/sim", "internal/simexec", "internal/strategy",
	"internal/trace", "internal/workload",
	"cmd/daggen", "cmd/ptgbench", "cmd/ptgsim", "cmd/ptgtrace",
}

// TestNoFusableMultiplyAdd keeps results bit-identical across
// architectures. Go may fuse x*y + z into one FMA instruction (arm64,
// ppc64le, s390x, riscv64 do), whose single rounding differs from amd64's
// two in the last bit; an explicit float64(x*y) conversion forbids the
// fusion. The scan reads every non-test file of resultPackages from the
// package's one typed pass (scan_test.go) and fails on a float addition or
// subtraction (compound assignments included) with an operand that is an
// unconverted float product, or a variable some assignment gives one —
// the spec's "t = x*y; r = t + z".
func TestNoFusableMultiplyAdd(t *testing.T) {
	tree := loadSource(t)
	scanned := 0
	for _, sp := range tree.pkgs {
		if !slices.Contains(resultPackages, sp.dir) {
			continue
		}
		scanned++
		for _, pos := range fusable(sp.files, sp.info) {
			t.Errorf("%s: float multiply-add may fuse; write float64(x*y)", tree.fset.Position(pos))
		}
	}
	if scanned != len(resultPackages) {
		t.Fatalf("scanned %d of the %d result packages", scanned, len(resultPackages))
	}
}

// fusable returns the position of every float addition or subtraction
// with a product operand, direct or through a variable.
func fusable(files []*ast.File, info *types.Info) []token.Pos {
	isFloat := func(e ast.Expr) bool { // and not a constant, which folds
		tv := info.Types[e]
		b, ok := tv.Type.(*types.Basic)
		return ok && b.Info()&types.IsFloat != 0 && tv.Value == nil
	}
	isProduct := func(e ast.Expr) bool {
		b, ok := ast.Unparen(e).(*ast.BinaryExpr)
		return ok && b.Op == token.MUL && isFloat(b)
	}
	// Variables assigned a product anywhere: a later sum over them may
	// fuse as if the product were written in place.
	products := make(map[types.Object]bool)
	obj := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if o := info.Defs[id]; o != nil {
			return o
		}
		return info.Uses[id]
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if (n.Tok == token.ASSIGN || n.Tok == token.DEFINE) && len(n.Lhs) == len(n.Rhs) {
					for i, rhs := range n.Rhs {
						if o := obj(n.Lhs[i]); o != nil && isProduct(rhs) {
							products[o] = true
						}
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i, v := range n.Values {
						if o := info.Defs[n.Names[i]]; o != nil && isProduct(v) {
							products[o] = true
						}
					}
				}
			}
			return true
		})
	}
	multiplied := func(e ast.Expr) bool {
		if isProduct(e) {
			return true
		}
		o := obj(e)
		return o != nil && products[o]
	}
	var found []token.Pos
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if (n.Op == token.ADD || n.Op == token.SUB) && isFloat(n) && (multiplied(n.X) || multiplied(n.Y)) {
					found = append(found, n.OpPos)
				}
			case *ast.AssignStmt:
				if (n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN) && isFloat(n.Lhs[0]) && multiplied(n.Rhs[0]) {
					found = append(found, n.TokPos)
				}
			}
			return true
		})
	}
	return found
}

// TestFusableFindsEachForm runs the scan over one file of every shape it
// must flag and every guarded or constant shape it must pass.
func TestFusableFindsEachForm(t *testing.T) {
	const src = `package p

func f(x, y, z float64, n int) (r float64) {
	r = x*y + z   // flag
	r = z - x*y   // flag
	r = z + (x*y) // flag
	r += x * y    // flag
	p := x * y
	r = p - z // flag
	var q = x * y
	r = z + q // flag

	r = float64(x*y) + z
	r += float64(x * y)
	s := float64(x * y)
	r = s + z
	r = 2*3.5 + 1
	n = n*n + 1
	return r + z
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	if _, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, pos := range fusable([]*ast.File{f}, info) {
		got = append(got, fset.Position(pos).Line)
	}
	var want []int
	for i, line := range strings.Split(src, "\n") {
		if strings.HasSuffix(line, "// flag") {
			want = append(want, i+1)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flagged lines %v, want %v", got, want)
	}
}
