// Package shardsafe enforces the router/shard isolation contract: every
// front serves the shard router, and each shard core owns its
// registries and WAL directory, so the router may
// coordinate shards only through the cores' request/response and
// broadcast surface. Three rules, reported inside the shard packages
// only:
//
//  1. Surface discipline: any use of a *service.Core method outside the
//     allowlisted request/broadcast surface (the white-box accessors —
//     DatasetTable, SessionHandle, StreamHandles, ... — exist for
//     tests) is flagged.
//  2. Index provenance: an index into the []*service.Core slice must be
//     the literal 0 (the route-miss fallback that produces the core's
//     own structured error), a range variable over the cores slice, a
//     routing-table (map[string]int) lookup, or a ShardFor rendezvous
//     hash. Arithmetic or parameter-derived indexes reach across shard
//     boundaries and are flagged.
//  3. Broadcast rollback: a loop over the cores slice that calls a
//     mutating Apply*/Delete* method must contain a nested rollback
//     loop, so a mid-broadcast refusal cannot leave shards disagreeing
//     about the policy set. (rebuild's torn-broadcast repair is the
//     designed exception: re-applying the policy union is idempotent —
//     the repair is the rollback.)
package shardsafe

import (
	"go/ast"
	"go/types"

	"blowfish/internal/analysis"
)

// Config tunes the analyzer; zero fields take the repository defaults.
type Config struct {
	// ShardPackages are the import-path suffixes audited (the router).
	ShardPackages []string
	// CorePackages/CoreType identify the shard core type.
	CorePackages []string
	CoreType     string
	// AllowedMethods is the request + broadcast surface the router may
	// call on a core.
	AllowedMethods []string
	// MutatorMethods are broadcast mutations that require rollback.
	MutatorMethods []string
	// ShardForFunc names the rendezvous-hash placement function.
	ShardForFunc string
}

func (c *Config) fill() {
	if len(c.ShardPackages) == 0 {
		c.ShardPackages = []string{"internal/shard"}
	}
	if len(c.CorePackages) == 0 {
		c.CorePackages = []string{"internal/service"}
	}
	if c.CoreType == "" {
		c.CoreType = "Core"
	}
	if len(c.AllowedMethods) == 0 {
		c.AllowedMethods = []string{
			// policies
			"ApplyPolicy", "DeletePolicy", "GetPolicy", "ListPolicies",
			"PolicySpec", "PolicyIDs", "HasPolicy",
			// datasets
			"ApplyDataset", "GetDataset", "ListDatasets", "DeleteDataset",
			"DatasetIDs", "HasDataset",
			// ingest
			"IngestEvents",
			// sessions
			"ApplySession", "GetSession", "ListSessions", "DeleteSession",
			"SessionIDs", "HasSession",
			// releases
			"Histogram", "Cumulative", "Range",
			// streams
			"ApplyStream", "GetStream", "ListStreams", "DeleteStream",
			"StreamIDs",
			"CloseEpoch", "StreamReleases",
			// lifecycle / aggregates
			"Checkpoint", "ExpireSessions", "SessionCount", "StreamCount",
			"CloseLeaked", "Close", "Abandon", "Metrics",
			// id counters a reopened router resumes from
			"IDCounters",
		}
	}
	if len(c.MutatorMethods) == 0 {
		c.MutatorMethods = []string{"ApplyPolicy", "DeletePolicy", "ApplyDataset", "ApplySession", "ApplyStream"}
	}
	if c.ShardForFunc == "" {
		c.ShardForFunc = "ShardFor"
	}
}

// New constructs the analyzer. Default audits internal/shard.
func New(cfg Config) *analysis.Analyzer {
	cfg.fill()
	return &analysis.Analyzer{
		Name: "shardsafe",
		Doc:  "restrict the shard router to the cores' request surface, require shard indexes to come from routing state, and require rollback branches on core broadcasts",
		Run:  func(pass *analysis.Pass) error { return run(pass, cfg) },
	}
}

// Default audits internal/shard against internal/service cores.
var Default = New(Config{})

func run(pass *analysis.Pass, cfg Config) error {
	if !analysis.PathHasSuffix(pass.Pkg.Path(), cfg.ShardPackages) {
		return nil
	}
	c := &checker{pass: pass, cfg: &cfg}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkFunc(fd)
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	cfg  *Config
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			c.checkSurface(x)
		case *ast.IndexExpr:
			if c.isCoresSlice(c.pass.TypesInfo.TypeOf(x.X)) {
				c.checkIndex(fd, x.Index)
			}
		case *ast.RangeStmt:
			c.checkBroadcast(x)
		}
		return true
	})
}

// checkSurface flags core methods outside the allowlist (method values
// included — the white-box accessors are reserved for tests).
func (c *checker) checkSurface(sel *ast.SelectorExpr) {
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || !c.isCoreMethod(fn) {
		return
	}
	if !contains(c.cfg.AllowedMethods, fn.Name()) {
		c.pass.Reportf(sel.Sel.Pos(),
			"shard core accessed outside the request surface: %s.%s is a white-box accessor reserved for tests — per-shard registries and WAL must stay behind the routed interface",
			c.cfg.CoreType, fn.Name())
	}
}

// checkIndex enforces index provenance on the cores slice.
func (c *checker) checkIndex(fd *ast.FuncDecl, idx ast.Expr) {
	idx = ast.Unparen(idx)
	if isZeroLit(idx) {
		return
	}
	id, ok := idx.(*ast.Ident)
	if !ok {
		c.pass.Reportf(idx.Pos(),
			"shard index is a computed expression: cores may only be addressed by the literal-0 fallback, a cores range variable, a routing-table lookup, or %s",
			c.cfg.ShardForFunc)
		return
	}
	obj := c.objOf(id)
	if obj == nil || !c.identProvenanceOK(fd, obj) {
		c.pass.Reportf(idx.Pos(),
			"shard index %s is not derived from a routing table, a cores range, the literal-0 fallback, or %s: cross-shard access breaks per-shard isolation (registries, WAL)",
			id.Name, c.cfg.ShardForFunc)
	}
}

// identProvenanceOK scans the function for every definition of obj and
// accepts only routing-derived ones.
func (c *checker) identProvenanceOK(fd *ast.FuncDecl, obj types.Object) bool {
	found := false
	ok := true
	ast.Inspect(fd, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				id, isIdent := lhs.(*ast.Ident)
				if !isIdent || c.objOf(id) != obj {
					continue
				}
				found = true
				var rhs ast.Expr
				if len(st.Rhs) == len(st.Lhs) {
					rhs = st.Rhs[i]
				} else if len(st.Rhs) == 1 && i == 0 {
					rhs = st.Rhs[0] // comma-ok map lookup
				}
				if !c.allowedIndexSource(rhs) {
					ok = false
				}
			}
		case *ast.RangeStmt:
			keyObj, valObj := c.rangeObjs(st)
			xt := c.pass.TypesInfo.TypeOf(st.X)
			if keyObj == obj {
				found = true
				if !c.isCoresSlice(xt) {
					ok = false
				}
			}
			if valObj == obj {
				found = true
				if !isRouteMap(xt) {
					ok = false
				}
			}
		}
		return true
	})
	return found && ok
}

// allowedIndexSource accepts the literal 0, a routing-table lookup, and
// a ShardFor call.
func (c *checker) allowedIndexSource(rhs ast.Expr) bool {
	if rhs == nil {
		return false
	}
	rhs = ast.Unparen(rhs)
	if isZeroLit(rhs) {
		return true
	}
	if ix, ok := rhs.(*ast.IndexExpr); ok {
		return isRouteMap(c.pass.TypesInfo.TypeOf(ix.X))
	}
	if call, ok := rhs.(*ast.CallExpr); ok {
		if fn := analysis.CalleeFunc(c.pass.TypesInfo, call); fn != nil {
			return fn.Name() == c.cfg.ShardForFunc
		}
	}
	return false
}

// checkBroadcast requires a rollback loop inside any cores-range that
// calls a mutating core method.
func (c *checker) checkBroadcast(rs *ast.RangeStmt) {
	if !c.isCoresSlice(c.pass.TypesInfo.TypeOf(rs.X)) {
		return
	}
	// A range over a sliced prefix (cores[:k]) is the rollback itself,
	// not a broadcast: it undoes the shards already touched.
	if _, ok := ast.Unparen(rs.X).(*ast.SliceExpr); ok {
		return
	}
	mutator := ""
	hasNestedLoop := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			hasNestedLoop = true
		case *ast.CallExpr:
			if fn := analysis.CalleeFunc(c.pass.TypesInfo, x); fn != nil &&
				c.isCoreMethod(fn) && contains(c.cfg.MutatorMethods, fn.Name()) {
				mutator = fn.Name()
			}
		}
		return true
	})
	if mutator != "" && !hasNestedLoop {
		c.pass.Reportf(rs.For,
			"broadcast over shard cores calls %s without a rollback branch: a mid-broadcast refusal would leave shards disagreeing about the registry state",
			mutator)
	}
}

func (c *checker) isCoreMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return c.isCoreNamed(analysis.NamedOf(sig.Recv().Type()))
}

func (c *checker) isCoreNamed(named *types.Named) bool {
	if named == nil || named.Obj().Name() != c.cfg.CoreType {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && analysis.PathHasSuffix(pkg.Path(), c.cfg.CorePackages)
}

func (c *checker) isCoresSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	return c.isCoreNamed(analysis.NamedOf(sl.Elem()))
}

func (c *checker) rangeObjs(rs *ast.RangeStmt) (key, val types.Object) {
	if id, ok := rs.Key.(*ast.Ident); ok {
		key = c.objOf(id)
	}
	if id, ok := rs.Value.(*ast.Ident); ok {
		val = c.objOf(id)
	}
	return key, val
}

func (c *checker) objOf(id *ast.Ident) types.Object {
	if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return c.pass.TypesInfo.Defs[id]
}

// isRouteMap reports a routing table: map[string]int.
func isRouteMap(t types.Type) bool {
	if t == nil {
		return false
	}
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return false
	}
	k, kok := m.Key().Underlying().(*types.Basic)
	e, eok := m.Elem().Underlying().(*types.Basic)
	return kok && eok && k.Kind() == types.String && e.Kind() == types.Int
}

func isZeroLit(e ast.Expr) bool {
	bl, ok := e.(*ast.BasicLit)
	return ok && bl.Value == "0"
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
