// Package truthflow proves, mechanically, that unnoised truth never
// escapes the process. The Blowfish guarantee (He et al., SIGMOD 2014)
// is a statement about *released* values: raw histogram counts, block
// counts, cumulative prefixes and dataset tuples may only cross a
// release surface after a noise mechanism calibrated by the policy's
// compiled sensitivity has been applied. The type system cannot see
// the difference between a noised vector and the truth it was derived
// from — both are []float64 — so this analyzer tracks it as taint.
//
// Sources are the truth accessors (DatasetIndex.Histogram/BlockCounts/
// PartitionHistogram/Cumulative*, Dataset.Points/PointsUnsafe,
// constraints.CountQuery.Count, hierarchy.Tree.EvalInto's output
// argument) plus any function the cross-package fixpoint marks as
// truth-returning. Sanitizers are the noise mechanisms
// (mechanism.Release*/ReleaseInPlace, ordered.ReleaseCumulative and
// OH.Release*, hierarchy.Tree.ReleaseInteriorInto, kmeans.PrivateLloyd)
// plus the primitive noising idiom itself: an assignment whose
// right-hand side adds a noise.Source sample (out[i] = v + src.Laplace(b))
// cleans the assigned variable, which is how the release packages'
// own bodies derive clean without per-function configuration. Sinks
// are the escape surfaces: fields of wire structs in internal/service
// and internal/server, wal Log.Append payloads, codec.AppendFrame,
// metrics label values and registered Collector closures, and log/slog
// arguments.
//
// Taint propagates through assignments, slice aliasing (append,
// sub-slicing, and the pooled staging buffers: a pooled slice passed to
// a *Append source stays tainted until an in-place noise call cleans
// it), struct fields, composite literals, closures (a func literal
// carries the taint of its free variables, so a Collector closure over
// raw counts is caught at RegisterCollector), returns, and
// cross-package calls via four fact kinds on the driver's string-keyed
// store: truthflow.returns.<j> (result j carries truth),
// truthflow.passthru.<i> (param i flows to a result),
// truthflow.sink.<i> (param i reaches an escape sink inside the
// callee), and truthflow.cleans.<i> (the callee noises param i in
// place). The analysis is statement-ordered and path-insensitive with
// sticky taint: branches are walked in source order and a plain
// reassignment merges rather than overwrites, so taint acquired on one
// branch survives the other; only a sanitizer application (or a
// direct noise-sample assignment) clears it. Error values are opaque:
// a truth accessor's error result reports why the read failed, it does
// not carry counts, so taint never binds to anything implementing the
// error interface (formatting raw counts into an error message is out
// of this analyzer's scope). Designed exceptions —
// snapshot/WAL journaling of dataset tuples (the durable state *is*
// the data; the WAL directory is server-private, not a release
// surface) and zero-sensitivity exact releases (no secret pair
// crosses a partition block, so the counts are policy-public) — carry
// //lint:allow truthflow annotations with justifications inventoried
// in vet-allowlist.txt.
package truthflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"blowfish/internal/analysis"
)

// Fact kinds exported through the driver's store. The integer suffix is
// a zero-based parameter or result index, capped at maxTracked.
const (
	factAnalyzed = "truthflow.analyzed"  // function was seen by this analyzer
	factReturns  = "truthflow.returns."  // + result index: result carries truth
	factPassthru = "truthflow.passthru." // + param index: param flows to a result
	factSink     = "truthflow.sink."     // + param index: param reaches a sink
	factCleans   = "truthflow.cleans."   // + param index: param is noised in place
)

// maxTracked bounds the parameter/result indexes carried in facts.
const maxTracked = 16

// FuncRef names a function or method in the analyzer's configuration.
// Pkg is an import-path suffix ("" matches any package), Recv the
// receiver type name ("" matches plain functions and any receiver),
// Name the function name ("*" matches any). Results selects which
// results a source taints (nil = all); Args selects which arguments a
// source taints in place, a sanitizer cleans in place, or a sink
// watches (nil = all arguments for sinks).
type FuncRef struct {
	Pkg     string
	Recv    string
	Name    string
	Results []int
	Args    []int
	// Desc names the escape surface in sink diagnostics.
	Desc string
}

func (r FuncRef) matches(fn *types.Func) bool {
	if r.Name != "*" && fn.Name() != r.Name {
		return false
	}
	if r.Pkg != "" {
		if fn.Pkg() == nil || !analysis.PathHasSuffix(fn.Pkg().Path(), []string{r.Pkg}) {
			return false
		}
	}
	if r.Recv != "" && recvTypeName(fn) != r.Recv {
		return false
	}
	return true
}

// Config tunes the analyzer; zero fields take the repository defaults.
type Config struct {
	// Sources produce truth: listed Results (and in-place Args) become
	// tainted at every call site.
	Sources []FuncRef
	// Sanitizers apply calibrated noise: listed Args are cleaned in
	// place and every result is clean.
	Sanitizers []FuncRef
	// Sinks are escape surfaces: a source-tainted argument in a listed
	// position is a finding.
	Sinks []FuncRef
	// WirePackages are import-path suffixes whose named struct types are
	// treated as wire/response surfaces: storing truth in any of their
	// fields is a finding.
	WirePackages []string
	// SamplerType/SamplerMethods identify the noise primitive: an
	// assignment whose right-hand side applies one of these methods
	// cleans the assigned variable.
	SamplerType    string
	SamplerMethods []string
}

func (c *Config) fill() {
	if len(c.Sources) == 0 {
		c.Sources = []FuncRef{
			{Pkg: "internal/engine", Recv: "DatasetIndex", Name: "Histogram"},
			{Pkg: "internal/engine", Recv: "DatasetIndex", Name: "HistogramAppend", Args: []int{0}},
			{Pkg: "internal/engine", Recv: "DatasetIndex", Name: "CumulativeAppend", Results: []int{0}, Args: []int{0}},
			{Pkg: "internal/engine", Recv: "DatasetIndex", Name: "BlockCounts"},
			{Pkg: "internal/engine", Recv: "DatasetIndex", Name: "PartitionHistogram"},
			{Pkg: "internal/engine", Recv: "DatasetIndex", Name: "Vectors"},
			{Recv: "Dataset", Name: "Histogram"},
			{Recv: "Dataset", Name: "PartitionHistogram"},
			{Recv: "Dataset", Name: "CumulativeHistogram"},
			{Recv: "Dataset", Name: "Points"},
			{Recv: "Dataset", Name: "PointsUnsafe"},
			{Recv: "Dataset", Name: "Vectors"},
			{Recv: "CountQuery", Name: "Count"},
			{Recv: "Tree", Name: "EvalInto", Args: []int{1}},
		}
	}
	if len(c.Sanitizers) == 0 {
		c.Sanitizers = []FuncRef{
			{Recv: "Laplace", Name: "Release"},
			{Recv: "Laplace", Name: "ReleaseInPlace", Args: []int{0}},
			{Recv: "Laplace", Name: "ReleaseScalar"},
			{Recv: "Geometric", Name: "Release"},
			{Pkg: "internal/ordered", Name: "ReleaseCumulative"},
			{Recv: "OH", Name: "Release"},
			{Recv: "OH", Name: "ReleaseWithSplit"},
			{Recv: "Tree", Name: "ReleaseInteriorInto", Args: []int{0}},
			{Pkg: "internal/kmeans", Name: "PrivateLloyd"},
		}
	}
	if len(c.Sinks) == 0 {
		c.Sinks = []FuncRef{
			{Pkg: "internal/wal", Recv: "Log", Name: "Append", Args: []int{1}, Desc: "WAL payload"},
			{Pkg: "internal/codec", Name: "AppendFrame", Args: []int{1}, Desc: "codec frame payload"},
			{Pkg: "internal/metrics", Recv: "CounterVec", Name: "With", Desc: "metrics label value"},
			{Pkg: "internal/metrics", Recv: "HistogramVec", Name: "With", Desc: "metrics label value"},
			{Pkg: "internal/metrics", Recv: "Registry", Name: "RegisterCollector", Desc: "metrics collector"},
			{Pkg: "log/slog", Name: "*", Desc: "log argument"},
		}
	}
	if len(c.WirePackages) == 0 {
		c.WirePackages = []string{"internal/service", "internal/server"}
	}
	if c.SamplerType == "" {
		c.SamplerType = "Source"
	}
	if len(c.SamplerMethods) == 0 {
		c.SamplerMethods = []string{"Laplace", "TwoSidedGeometric", "Gaussian"}
	}
}

// New constructs the analyzer. Default audits the repository layout.
func New(cfg Config) *analysis.Analyzer {
	cfg.fill()
	return &analysis.Analyzer{
		Name: "truthflow",
		Doc:  "taint-track raw truth vectors and flag any path where they reach a wire struct, WAL payload, metrics label or log without a noise release",
		Run:  func(pass *analysis.Pass) error { return run(pass, cfg) },
	}
}

// Default audits the repository layout.
var Default = New(Config{})

// taint is the abstract value tracked per variable: src marks data
// derived from a truth source (origin describes the first source for
// diagnostics); params is a bitmask of the current function's
// parameters the value is derived from, used to summarize pass-through,
// sink-reaching and cleaning behaviour as facts.
type taint struct {
	src    bool
	origin string
	params uint32
}

func (t taint) tainted() bool { return t.src || t.params != 0 }

func union(a, b taint) taint {
	out := taint{src: a.src || b.src, origin: a.origin, params: a.params | b.params}
	if out.origin == "" {
		out.origin = b.origin
	}
	return out
}

// pkgAnalysis is the per-package fixpoint state.
type pkgAnalysis struct {
	pass    *analysis.Pass
	cfg     *Config
	fns     []*fnDecl
	changed bool
	diags   map[string]diag
}

type fnDecl struct {
	decl *ast.FuncDecl
	key  string
}

type diag struct {
	pos token.Pos
	msg string
}

func run(pass *analysis.Pass, cfg Config) error {
	pa := &pkgAnalysis{pass: pass, cfg: &cfg}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := &fnDecl{decl: fd}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				fn.key = analysis.FuncKey(obj)
			}
			if fn.key != "" {
				// Mark every function in the loaded universe as analyzed so
				// call sites can distinguish "no facts because clean" from
				// "no facts because outside the analysis" (stdlib, indirect).
				pass.Facts.Set(factAnalyzed, fn.key)
			}
			pa.fns = append(pa.fns, fn)
		}
	}

	// Package-local fixpoint: re-interpret every function until the fact
	// store stabilizes, so mutually recursive helpers and later-declared
	// callees converge. Diagnostics are collected per sweep and only the
	// final (complete) sweep's set is emitted.
	for {
		pa.changed = false
		pa.diags = make(map[string]diag)
		for _, fn := range pa.fns {
			newFuncState(pa, fn).exec()
		}
		if !pa.changed {
			break
		}
	}

	keys := make([]string, 0, len(pa.diags))
	for k := range pa.diags {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d := pa.diags[k]
		pass.Reportf(d.pos, "%s", d.msg)
	}
	return nil
}

func (pa *pkgAnalysis) setFact(kind, key string) {
	if key == "" {
		return
	}
	if !pa.pass.Facts.Has(kind, key) {
		pa.pass.Facts.Set(kind, key)
		pa.changed = true
	}
}

func (pa *pkgAnalysis) report(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	pa.diags[fmt.Sprintf("%d|%s", pos, msg)] = diag{pos: pos, msg: msg}
}

// funcState interprets one function body over the taint lattice.
type funcState struct {
	pa     *pkgAnalysis
	fd     *ast.FuncDecl
	key    string
	info   *types.Info
	params map[types.Object]int
	vars   map[types.Object]taint
	named  []types.Object // named results, for bare returns
}

func newFuncState(pa *pkgAnalysis, fn *fnDecl) *funcState {
	fs := &funcState{
		pa:     pa,
		fd:     fn.decl,
		key:    fn.key,
		info:   pa.pass.TypesInfo,
		params: make(map[types.Object]int),
		vars:   make(map[types.Object]taint),
	}
	idx := 0
	if fn.decl.Type.Params != nil {
		for _, field := range fn.decl.Type.Params.List {
			for _, name := range field.Names {
				if obj := fs.info.Defs[name]; obj != nil && idx < maxTracked {
					fs.params[obj] = idx
					fs.vars[obj] = taint{params: 1 << uint(idx)}
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}
	if fn.decl.Type.Results != nil {
		for _, field := range fn.decl.Type.Results.List {
			for _, name := range field.Names {
				if obj := fs.info.Defs[name]; obj != nil {
					fs.named = append(fs.named, obj)
				}
			}
		}
	}
	return fs
}

func (fs *funcState) exec() {
	fs.execStmt(fs.fd.Body)
}

func (fs *funcState) execStmt(s ast.Stmt) {
	switch st := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, sub := range st.List {
			fs.execStmt(sub)
		}
	case *ast.ExprStmt:
		fs.eval(st.X)
	case *ast.AssignStmt:
		fs.assign(st)
	case *ast.ReturnStmt:
		fs.ret(st)
	case *ast.IfStmt:
		fs.execStmt(st.Init)
		fs.eval(st.Cond)
		fs.execStmt(st.Body)
		fs.execStmt(st.Else)
	case *ast.ForStmt:
		fs.execStmt(st.Init)
		if st.Cond != nil {
			fs.eval(st.Cond)
		}
		fs.execStmt(st.Body)
		fs.execStmt(st.Post)
	case *ast.RangeStmt:
		t := fs.eval(st.X)
		fs.assignTo(st.Key, taint{}, true)
		fs.assignTo(st.Value, t, true)
		fs.execStmt(st.Body)
	case *ast.SwitchStmt:
		fs.execStmt(st.Init)
		if st.Tag != nil {
			fs.eval(st.Tag)
		}
		for _, clause := range st.Body.List {
			cc, ok := clause.(*ast.CaseClause)
			if !ok {
				continue
			}
			for _, e := range cc.List {
				fs.eval(e)
			}
			for _, sub := range cc.Body {
				fs.execStmt(sub)
			}
		}
	case *ast.TypeSwitchStmt:
		fs.execStmt(st.Init)
		var operand taint
		switch a := st.Assign.(type) {
		case *ast.ExprStmt:
			operand = fs.eval(a.X)
		case *ast.AssignStmt:
			if len(a.Rhs) == 1 {
				operand = fs.eval(a.Rhs[0])
			}
		}
		for _, clause := range st.Body.List {
			cc, ok := clause.(*ast.CaseClause)
			if !ok {
				continue
			}
			if obj := fs.info.Implicits[cc]; obj != nil {
				fs.vars[obj] = operand
			}
			for _, sub := range cc.Body {
				fs.execStmt(sub)
			}
		}
	case *ast.SelectStmt:
		for _, clause := range st.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			fs.execStmt(cc.Comm)
			for _, sub := range cc.Body {
				fs.execStmt(sub)
			}
		}
	case *ast.DeferStmt:
		fs.eval(st.Call)
	case *ast.GoStmt:
		fs.eval(st.Call)
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			if len(vs.Values) == len(vs.Names) {
				for i, name := range vs.Names {
					fs.assignTo(name, fs.eval(vs.Values[i]), true)
				}
			} else if len(vs.Values) == 1 && len(vs.Names) > 1 {
				ts := fs.evalMulti(vs.Values[0], len(vs.Names))
				for i, name := range vs.Names {
					fs.assignTo(name, ts[i], true)
				}
			}
		}
	case *ast.LabeledStmt:
		fs.execStmt(st.Stmt)
	case *ast.SendStmt:
		fs.eval(st.Chan)
		fs.eval(st.Value)
	case *ast.IncDecStmt:
		fs.eval(st.X)
	}
}

func (fs *funcState) assign(st *ast.AssignStmt) {
	if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
		// Op-assign: v[i] += src.Laplace(b) is the primitive noising idiom
		// and cleans the assigned variable; any other op merges.
		t := fs.eval(st.Rhs[0])
		if fs.containsSampler(st.Rhs[0]) {
			fs.clean(st.Lhs[0])
			return
		}
		fs.assignTo(st.Lhs[0], t, false)
		return
	}
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		ts := fs.evalMulti(st.Rhs[0], len(st.Lhs))
		// Same sticky rule as the single-value case: a plain multi-value
		// reassignment merges, so `counts, err = releaseA(...)` on one
		// branch does not erase taint the sibling branch put in counts.
		overwrite := st.Tok == token.DEFINE || fs.isReleaseExpr(st.Rhs[0])
		for i, lhs := range st.Lhs {
			fs.assignTo(lhs, ts[i], overwrite)
		}
		return
	}
	for i, lhs := range st.Lhs {
		rhs := st.Rhs[i]
		t := fs.eval(rhs)
		// A direct sanitizer call or a noise-sample sum is definitely
		// clean and may overwrite; everything else overwrites only fresh
		// declarations. Plain reassignment merges (sticky taint), so a
		// branch that assigns truth is not erased by a sibling branch.
		overwrite := st.Tok == token.DEFINE || fs.isReleaseExpr(rhs)
		fs.assignTo(lhs, t, overwrite)
	}
}

// isReleaseExpr reports whether e is definitely-clean released output: a
// direct call to a configured sanitizer, or an expression containing a
// direct noise-sample call.
func (fs *funcState) isReleaseExpr(e ast.Expr) bool {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		if fn := analysis.CalleeFunc(fs.info, call); fn != nil {
			if _, ok := matchRef(fs.pa.cfg.Sanitizers, fn); ok {
				return true
			}
		}
	}
	return fs.containsSampler(e)
}

func (fs *funcState) containsSampler(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(fs.info, call)
		if fn != nil && recvTypeName(fn) == fs.pa.cfg.SamplerType && contains(fs.pa.cfg.SamplerMethods, fn.Name()) {
			found = true
			return false
		}
		return true
	})
	return found
}

// assignTo writes t into the lvalue. Plain identifiers overwrite when
// requested and merge otherwise; element/field/pointer writes always
// merge into the base variable. Writes into wire-struct fields are an
// escape surface.
func (fs *funcState) assignTo(lhs ast.Expr, t taint, overwrite bool) {
	switch x := ast.Unparen(lhs).(type) {
	case nil:
	case *ast.Ident:
		if x.Name == "_" {
			return
		}
		obj := fs.objOf(x)
		if obj == nil || isErrType(obj.Type()) {
			return
		}
		if overwrite {
			fs.vars[obj] = t
		} else {
			fs.vars[obj] = union(fs.vars[obj], t)
		}
	case *ast.SelectorExpr:
		if named := analysis.NamedOf(fs.info.TypeOf(x.X)); named != nil && fs.isWireStruct(named) {
			fs.sinkHit(x.Sel.Pos(), t, fmt.Sprintf("wire field %s.%s", named.Obj().Name(), x.Sel.Name))
		}
		fs.mergeBase(x.X, t)
	default:
		fs.mergeBase(lhs, t)
	}
}

// mergeBase merges t into the root variable of an lvalue chain
// (x[i] = v, *p = v, x.f = v all taint x/p).
func (fs *funcState) mergeBase(e ast.Expr, t taint) {
	if !t.tainted() {
		return
	}
	if obj := baseObj(fs.info, e); obj != nil && !isErrType(obj.Type()) {
		fs.vars[obj] = union(fs.vars[obj], t)
	}
}

// clean resets the base variable of e to untainted; if it is a
// parameter, the function is recorded as noising that parameter in
// place so callers' copies of the backing array become clean too.
func (fs *funcState) clean(e ast.Expr) {
	obj := baseObj(fs.info, e)
	if obj == nil {
		return
	}
	fs.vars[obj] = taint{}
	if i, ok := fs.params[obj]; ok {
		fs.pa.setFact(factCleans+strconv.Itoa(i), fs.key)
	}
}

func (fs *funcState) ret(st *ast.ReturnStmt) {
	var ts []taint
	if len(st.Results) == 0 {
		for _, obj := range fs.named {
			ts = append(ts, fs.vars[obj])
		}
	} else if len(st.Results) == 1 {
		nres := 1
		if fs.fd.Type.Results != nil {
			nres = countResults(fs.fd.Type.Results)
		}
		if nres > 1 {
			ts = fs.evalMulti(st.Results[0], nres)
		} else {
			ts = []taint{fs.eval(st.Results[0])}
		}
	} else {
		for _, e := range st.Results {
			ts = append(ts, fs.eval(e))
		}
	}
	var results *types.Tuple
	if fn, ok := fs.info.Defs[fs.fd.Name].(*types.Func); ok {
		results = fn.Type().(*types.Signature).Results()
	}
	for j, t := range ts {
		if j >= maxTracked {
			break
		}
		if results != nil && j < results.Len() && isErrType(results.At(j).Type()) {
			continue
		}
		if t.src {
			fs.pa.setFact(factReturns+strconv.Itoa(j), fs.key)
		}
		for i := 0; i < maxTracked; i++ {
			if t.params&(1<<uint(i)) != 0 {
				fs.pa.setFact(factPassthru+strconv.Itoa(i), fs.key)
			}
		}
	}
}

func countResults(fl *ast.FieldList) int {
	n := 0
	for _, f := range fl.List {
		if len(f.Names) == 0 {
			n++
		} else {
			n += len(f.Names)
		}
	}
	return n
}

// sinkHit handles tainted data arriving at an escape surface: source
// taint is a finding, parameter taint becomes a sink fact so the report
// fires at the call site that supplies the truth.
func (fs *funcState) sinkHit(pos token.Pos, t taint, surface string) {
	if t.src {
		origin := ""
		if t.origin != "" {
			origin = " (from " + t.origin + ")"
		}
		fs.pa.report(pos, "unnoised truth%s reaches %s: raw values must pass a noise mechanism calibrated by the policy's sensitivity before they escape", origin, surface)
	}
	for i := 0; i < maxTracked; i++ {
		if t.params&(1<<uint(i)) != 0 {
			fs.pa.setFact(factSink+strconv.Itoa(i), fs.key)
		}
	}
}

// eval computes the taint of an expression, interpreting calls (and
// their effects) along the way.
func (fs *funcState) eval(e ast.Expr) taint {
	switch x := e.(type) {
	case nil:
		return taint{}
	case *ast.Ident:
		if obj := fs.objOf(x); obj != nil {
			return fs.vars[obj]
		}
		return taint{}
	case *ast.ParenExpr:
		return fs.eval(x.X)
	case *ast.BinaryExpr:
		if fs.containsSampler(x) {
			// v + src.Laplace(b): adding calibrated noise is the release
			// primitive — the sum is clean regardless of the operands.
			fs.evalQuiet(x.X)
			fs.evalQuiet(x.Y)
			return taint{}
		}
		return union(fs.eval(x.X), fs.eval(x.Y))
	case *ast.UnaryExpr:
		return fs.eval(x.X)
	case *ast.StarExpr:
		return fs.eval(x.X)
	case *ast.IndexExpr:
		t := fs.eval(x.X)
		fs.eval(x.Index)
		return t
	case *ast.IndexListExpr:
		return fs.eval(x.X)
	case *ast.SliceExpr:
		t := fs.eval(x.X)
		fs.eval(x.Low)
		fs.eval(x.High)
		fs.eval(x.Max)
		return t
	case *ast.SelectorExpr:
		// Field reads carry the struct's taint; method values their
		// receiver's; package-qualified names resolve to zero.
		return fs.eval(x.X)
	case *ast.CallExpr:
		ts := fs.call(x)
		out := taint{}
		for _, t := range ts {
			out = union(out, t)
		}
		return out
	case *ast.CompositeLit:
		return fs.composite(x)
	case *ast.FuncLit:
		return fs.funcLit(x)
	case *ast.TypeAssertExpr:
		return fs.eval(x.X)
	case *ast.KeyValueExpr:
		return fs.eval(x.Value)
	default:
		return taint{}
	}
}

// evalQuiet evaluates only for call side effects (used under a noise
// binop, where the operand taints do not escape into the sum).
func (fs *funcState) evalQuiet(e ast.Expr) { fs.eval(e) }

// evalMulti evaluates a single expression in a context expecting n
// values (multi-result call, v-ok map/assert/receive forms).
func (fs *funcState) evalMulti(e ast.Expr, n int) []taint {
	var ts []taint
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		ts = fs.call(call)
	} else {
		ts = []taint{fs.eval(e)}
	}
	for len(ts) < n {
		ts = append(ts, taint{})
	}
	return ts[:n]
}

// composite evaluates a composite literal; storing tainted values into
// wire-struct fields is an escape.
func (fs *funcState) composite(x *ast.CompositeLit) taint {
	named := analysis.NamedOf(fs.info.TypeOf(x))
	wire := named != nil && fs.isWireStruct(named)
	out := taint{}
	for _, elt := range x.Elts {
		field := ""
		val := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			val = kv.Value
			if id, ok := kv.Key.(*ast.Ident); ok {
				field = id.Name
			}
		}
		t := fs.eval(val)
		if wire && t.tainted() {
			surface := fmt.Sprintf("wire field %s.%s", named.Obj().Name(), field)
			if field == "" {
				surface = fmt.Sprintf("wire struct %s", named.Obj().Name())
			}
			fs.sinkHit(val.Pos(), t, surface)
		}
		out = union(out, t)
	}
	return out
}

// funcLit interprets the closure body in the enclosing frame (its
// effects on captured variables apply) and values the literal as the
// union of its free variables' taints, so registering a collector
// closure over raw counts carries the taint to the sink.
func (fs *funcState) funcLit(x *ast.FuncLit) taint {
	fs.execStmt(x.Body)
	out := taint{}
	ast.Inspect(x.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := fs.info.Uses[id]; obj != nil {
			out = union(out, fs.vars[obj])
		}
		return true
	})
	return out
}

func (fs *funcState) isWireStruct(named *types.Named) bool {
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && analysis.PathHasSuffix(pkg.Path(), fs.pa.cfg.WirePackages)
}

// call interprets one call expression and returns per-result taints.
// Error-typed results are stripped: errors are opaque to the analyzer.
func (fs *funcState) call(x *ast.CallExpr) []taint {
	out := fs.callRaw(x)
	if tv, ok := fs.info.Types[x]; ok {
		if tup, ok := tv.Type.(*types.Tuple); ok {
			for j := 0; j < tup.Len() && j < len(out); j++ {
				if isErrType(tup.At(j).Type()) {
					out[j] = taint{}
				}
			}
		} else if len(out) > 0 && isErrType(tv.Type) {
			out[0] = taint{}
		}
	}
	return out
}

func (fs *funcState) callRaw(x *ast.CallExpr) []taint {
	// Conversion: []float64(v), float64(n) — taint passes through.
	if tv, ok := fs.info.Types[x.Fun]; ok && tv.IsType() {
		if len(x.Args) == 1 {
			return []taint{fs.eval(x.Args[0])}
		}
		return []taint{{}}
	}
	if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
		if _, ok := fs.info.Uses[id].(*types.Builtin); ok {
			return fs.builtin(id.Name, x)
		}
	}
	fn := analysis.CalleeFunc(fs.info, x)
	if fn == nil {
		// Indirect call through a func value: conservatively assume every
		// argument can flow to every result.
		out := fs.eval(x.Fun)
		for _, a := range x.Args {
			out = union(out, fs.eval(a))
		}
		return fill(out, resultCount(fs.info, x))
	}

	cfg := fs.pa.cfg
	if recvTypeName(fn) == cfg.SamplerType && contains(cfg.SamplerMethods, fn.Name()) {
		for _, a := range x.Args {
			fs.eval(a)
		}
		return fill(taint{}, resultCount(fs.info, x))
	}

	if ref, ok := matchRef(cfg.Sources, fn); ok {
		for _, a := range x.Args {
			fs.eval(a)
		}
		src := taint{src: true, origin: describe(fn)}
		// In-place producers (HistogramAppend-style) taint the
		// destination argument's backing array.
		for _, ai := range ref.Args {
			if ai < len(x.Args) {
				fs.mergeBase(x.Args[ai], src)
			}
		}
		n := resultCount(fs.info, x)
		out := make([]taint, n)
		if len(ref.Results) == 0 {
			for j := range out {
				out[j] = src
			}
		} else {
			for _, j := range ref.Results {
				if j < n {
					out[j] = src
				}
			}
		}
		return out
	}

	if ref, ok := matchRef(cfg.Sanitizers, fn); ok {
		for i, a := range x.Args {
			fs.eval(a)
			for _, ai := range ref.Args {
				if i == ai {
					fs.clean(a)
				}
			}
		}
		return fill(taint{}, resultCount(fs.info, x))
	}

	// General call: evaluate arguments, consult the callee's facts.
	key := analysis.FuncKey(fn)
	argTaints := make([]taint, len(x.Args))
	for i, a := range x.Args {
		argTaints[i] = fs.eval(a)
	}
	var recvTaint taint
	if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
		recvTaint = fs.eval(sel.X)
	}

	sig, _ := fn.Type().(*types.Signature)
	paramIdx := func(argPos int) int {
		if sig == nil || sig.Params().Len() == 0 {
			return argPos
		}
		if sig.Variadic() && argPos >= sig.Params().Len() {
			return sig.Params().Len() - 1
		}
		return argPos
	}

	if ref, ok := matchRef(cfg.Sinks, fn); ok {
		watch := ref.Args
		for i, t := range argTaints {
			watched := len(watch) == 0
			for _, w := range watch {
				if i == w {
					watched = true
				}
			}
			if watched && t.tainted() {
				surface := ref.Desc
				if surface == "" {
					surface = describe(fn)
				} else {
					surface = fmt.Sprintf("%s (%s)", surface, describe(fn))
				}
				fs.sinkHit(x.Args[i].Pos(), t, surface)
			}
		}
		return fill(taint{}, resultCount(fs.info, x))
	}

	facts := fs.pa.pass.Facts
	for i, t := range argTaints {
		if !t.tainted() {
			continue
		}
		pi := paramIdx(i)
		if facts.Has(factSink+strconv.Itoa(pi), key) {
			fs.sinkHit(x.Args[i].Pos(), t, fmt.Sprintf("a release sink inside %s", describe(fn)))
		}
		if facts.Has(factCleans+strconv.Itoa(pi), key) {
			fs.clean(x.Args[i])
			argTaints[i] = taint{}
		}
	}

	n := resultCount(fs.info, x)
	out := make([]taint, n)
	for j := 0; j < n && j < maxTracked; j++ {
		if facts.Has(factReturns+strconv.Itoa(j), key) {
			out[j] = taint{src: true, origin: "truth-returning " + describe(fn)}
		}
	}
	if facts.Has(factAnalyzed, key) {
		for i, t := range argTaints {
			if !t.tainted() {
				continue
			}
			if facts.Has(factPassthru+strconv.Itoa(paramIdx(i)), key) {
				for j := range out {
					out[j] = union(out[j], t)
				}
			}
		}
	} else {
		// Outside the loaded universe (stdlib, interface methods without
		// a concrete summary): assume arguments and receiver flow to
		// every result.
		all := recvTaint
		for _, t := range argTaints {
			all = union(all, t)
		}
		for j := range out {
			out[j] = union(out[j], all)
		}
	}
	return out
}

func (fs *funcState) builtin(name string, x *ast.CallExpr) []taint {
	switch name {
	case "append":
		out := taint{}
		for _, a := range x.Args {
			out = union(out, fs.eval(a))
		}
		// append may write through dst's backing array.
		if len(x.Args) > 0 {
			fs.mergeBase(x.Args[0], out)
		}
		return []taint{out}
	case "copy":
		if len(x.Args) == 2 {
			t := fs.eval(x.Args[1])
			fs.eval(x.Args[0])
			fs.mergeBase(x.Args[0], t)
		}
		return []taint{{}}
	case "len", "cap", "make", "new", "clear", "delete", "print", "println", "panic", "recover":
		for _, a := range x.Args {
			fs.eval(a)
		}
		return fill(taint{}, resultCount(fs.info, x))
	default:
		out := taint{}
		for _, a := range x.Args {
			out = union(out, fs.eval(a))
		}
		return fill(out, resultCount(fs.info, x))
	}
}

func (fs *funcState) objOf(id *ast.Ident) types.Object {
	if obj := fs.info.Uses[id]; obj != nil {
		return obj
	}
	return fs.info.Defs[id]
}

var errIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrType reports whether t carries an error value. Errors are opaque
// to the taint model: they say why a truth read failed, not what it read.
func isErrType(t types.Type) bool {
	return t != nil && types.Implements(t, errIface)
}

// baseObj resolves the root variable of an expression chain:
// (*buf)[:0], x[i], x.f, &x all resolve to the object of x.
func baseObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func resultCount(info *types.Info, call *ast.CallExpr) int {
	tv, ok := info.Types[call]
	if !ok {
		return 1
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		return tuple.Len()
	}
	if tv.Type == nil || tv.IsVoid() {
		return 0
	}
	return 1
}

func fill(t taint, n int) []taint {
	if n <= 0 {
		n = 1
	}
	out := make([]taint, n)
	for i := range out {
		out[i] = t
	}
	return out
}

func matchRef(refs []FuncRef, fn *types.Func) (FuncRef, bool) {
	for _, r := range refs {
		if r.matches(fn) {
			return r, true
		}
	}
	return FuncRef{}, false
}

func describe(fn *types.Func) string {
	if recv := recvTypeName(fn); recv != "" {
		return recv + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		path := fn.Pkg().Path()
		if i := strings.LastIndex(path, "/"); i >= 0 {
			path = path[i+1:]
		}
		return path + "." + fn.Name()
	}
	return fn.Name()
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	named := analysis.NamedOf(sig.Recv().Type())
	if named == nil {
		return ""
	}
	return named.Obj().Name()
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
