// Package detorder flags map iteration whose order can leak into
// replay-sensitive output. Go randomizes map range order per process, so
// any value that depends on it differs between the pre-crash server and
// its recovered twin: WAL payloads stop being byte-comparable, float
// accumulation re-associates (IEEE 754 addition is not associative), and
// noise draws land in a different sequence even from an identical
// generator state. The crash suites compare releases bit-for-bit; a
// single order-dependent range costs hours of chasing nondeterminism that
// never reproduces twice.
//
// Inside a `for ... range m` over a map, the analyzer flags:
//
//   - appends into a slice declared outside the loop — UNLESS the slice
//     is later passed to a sort.* / slices.* call in the same function
//     (the repository's collect-then-sort idiom is order-safe);
//   - floating-point compound accumulation (x += ...) into variables
//     declared outside the loop;
//   - calls to replay-sensitive sinks: WAL appends, accountant charges,
//     noise samplers, encoders;
//   - channel sends (the receiver observes arrival order).
//
// Reads, counts, max-tracking, and deletes keyed by the iteration
// variable are order-independent and pass untouched.
package detorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"blowfish/internal/analysis"
)

// Config tunes the analyzer; zero fields take the repository defaults.
type Config struct {
	// Packages are import-path suffixes to audit. These are the layers
	// whose outputs recovery compares bit-for-bit.
	Packages []string
	// SortPackages are packages whose calls sanction a collected slice
	// (sort.Slice, slices.Sort, ...).
	SortPackages []string
	// SinkMethods are method names whose call inside a map-range body is
	// order-sensitive regardless of data flow.
	SinkMethods []string
}

func (c *Config) fill() {
	if len(c.Packages) == 0 {
		c.Packages = []string{
			"blowfish", "internal/engine", "internal/stream", "internal/server",
			"internal/service", "internal/shard",
			"internal/wal", "internal/secgraph", "internal/constraints", "internal/policy",
		}
	}
	if len(c.SortPackages) == 0 {
		c.SortPackages = []string{"sort", "slices"}
	}
	if len(c.SinkMethods) == 0 {
		c.SinkMethods = []string{
			"Append",                           // wal.Log.Append: payload bytes become the replay script
			"Spend", "SpendParallel", "Charge", // ledger order is part of exported state
			"Laplace", "TwoSidedGeometric", "Gaussian", // stream position
			"Encode", "Write", // serialization inside the loop fixes iteration order into bytes
		}
	}
}

// New constructs the analyzer. Default audits the replay-compared layers.
func New(cfg Config) *analysis.Analyzer {
	cfg.fill()
	return &analysis.Analyzer{
		Name: "detorder",
		Doc:  "flag map iteration feeding releases, WAL payloads, or accumulation (replay determinism)",
		Run:  func(pass *analysis.Pass) error { return run(pass, cfg) },
	}
}

// Default audits the repository's replay-compared packages.
var Default = New(Config{})

func run(pass *analysis.Pass, cfg Config) error {
	if !analysis.PathHasSuffix(pass.Pkg.Path(), cfg.Packages) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, cfg, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, cfg Config, fd *ast.FuncDecl) {
	// sortedObjs collects objects passed to sort/slices calls anywhere in
	// the function; an append target among them is the sanctioned
	// collect-then-sort idiom.
	sortedObjs := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if !inList(cfg.SortPackages, fn.Pkg().Path()) {
			return true
		}
		for _, arg := range call.Args {
			if obj := identObj(pass.TypesInfo, arg); obj != nil {
				sortedObjs[obj] = true
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRange(pass, cfg, rng, sortedObjs)
		return true
	})
}

func checkMapRange(pass *analysis.Pass, cfg Config, rng *ast.RangeStmt, sortedObjs map[types.Object]bool) {
	inLoop := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, lhs := range n.Lhs {
					obj := identObj(pass.TypesInfo, lhs)
					if inLoop(obj) {
						continue
					}
					if tv, ok := pass.TypesInfo.Types[lhs]; ok && isFloat(tv.Type) {
						pass.Reportf(n.Pos(),
							"floating-point accumulation across a map range: addition order follows randomized iteration order, so the total differs bit-for-bit between runs (replay comparison breaks); collect and sort first, or accumulate integers")
					}
				}
			case token.ASSIGN:
				// x = append(x, ...) into an outer slice.
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					call, ok := n.Rhs[i].(*ast.CallExpr)
					if !ok {
						continue
					}
					if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
						continue
					}
					obj := identObj(pass.TypesInfo, lhs)
					if obj == nil || inLoop(obj) || sortedObjs[obj] {
						continue
					}
					pass.Reportf(n.Pos(),
						"append into %q inside a map range fixes randomized iteration order into the slice; sort it afterwards (collect-then-sort) or iterate sorted keys",
						obj.Name())
				}
			}
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"channel send inside a map range: the receiver observes randomized iteration order")
		case *ast.CallExpr:
			fn := analysis.CalleeFunc(pass.TypesInfo, n)
			if fn == nil {
				return true
			}
			if recvNamed(fn) && inList(cfg.SinkMethods, fn.Name()) {
				pass.Reportf(n.Pos(),
					"%s called inside a map range: WAL payloads, ledger charges, and noise draws are replayed in log order, which a randomized iteration order cannot reproduce",
					fn.Name())
			}
		}
		return true
	})
}

// identObj resolves an identifier (possibly parenthesized) to its object.
func identObj(info *types.Info, e ast.Expr) types.Object {
	for {
		if p, ok := e.(*ast.ParenExpr); ok {
			e = p.X
			continue
		}
		break
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// recvNamed reports whether fn is a method (sink matching is
// method-name-based; free functions named Write etc. are too common).
func recvNamed(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

func inList(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
