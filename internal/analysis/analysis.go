// Package analysis is a self-contained static-analysis framework shaped
// after golang.org/x/tools/go/analysis, built only on the standard
// library so the repository's invariant checkers (cmd/blowfish-vet) need
// no module downloads. It provides the Analyzer/Pass/Diagnostic vocabulary,
// a package loader that resolves imports from the build cache's export
// data (internal/analysis/load semantics live in load.go), a driver that
// runs analyzers over packages in dependency order with a cross-package
// fact store, and `//lint:allow` suppression with mandatory justification.
//
// The analyzers under this directory mechanically enforce the invariants
// the type system cannot see — every noised release is charged to a
// composition.Accountant, every acked mutation is journaled write-ahead,
// all randomness flows through the internal/noise source, no
// release/encoding path depends on map iteration order, and lock usage
// follows the documented discipline. See DESIGN.md §5.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// Analyzer describes one invariant checker. Unlike x/tools analyzers it
// carries no flag set: configuration happens at construction (each
// analyzer package exposes New(Config) plus a Default built from the
// repository's real layout).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow <name> suppression comments. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Run inspects one package and reports findings via pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the parsed non-test Go files of the package.
	Files []*ast.File
	// Pkg is the source-checked package; TypesInfo its resolved uses.
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts is shared across every package of one driver run. Packages are
	// analyzed in dependency order, so facts exported while analyzing an
	// import are visible here.
	Facts *Facts

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Analyzer: p.Analyzer.Name, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
	// Suppressed is set by the driver when an in-scope //lint:allow
	// directive covers the finding; Justification carries its reason.
	Suppressed    bool
	Justification string
	// Position is the resolved file position (driver-filled).
	Position token.Position
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Position, d.Analyzer, d.Message)
}

// Facts is a cross-package store of string-keyed function properties
// ("charges the accountant", "draws noise", ...). Keys are canonical
// object strings (see FuncKey) rather than types.Object identities,
// because the same function is a different object when seen from source
// and when imported from export data.
type Facts struct {
	mu sync.Mutex
	m  map[string]map[string]bool // fact kind -> object key -> true
}

// NewFacts creates an empty store.
func NewFacts() *Facts {
	return &Facts{m: make(map[string]map[string]bool)}
}

// Set records that the object identified by key has the named fact.
func (f *Facts) Set(kind, key string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	byKey, ok := f.m[kind]
	if !ok {
		byKey = make(map[string]bool)
		f.m[kind] = byKey
	}
	byKey[key] = true
}

// Has reports whether the object identified by key has the named fact.
func (f *Facts) Has(kind, key string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.m[kind][key]
}

// Keys returns the sorted keys carrying the named fact (diagnostics).
func (f *Facts) Keys(kind string) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.m[kind]))
	for k := range f.m[kind] {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FuncKey returns the canonical cross-package identity of a function or
// method: "path.Name" for package functions, "path.(Recv).Name" for
// methods (pointerness stripped, so a fact set on (*T).M is found through
// T.M and vice versa). It returns "" for nil or builtin objects.
func FuncKey(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		if named := namedOf(sig.Recv().Type()); named != nil {
			return fmt.Sprintf("%s.(%s).%s", path, named.Obj().Name(), fn.Name())
		}
	}
	return path + "." + fn.Name()
}

// namedOf unwraps pointers and aliases down to the named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// NamedOf is the exported form of namedOf for analyzer packages.
func NamedOf(t types.Type) *types.Named { return namedOf(t) }

// CalleeFunc resolves the *types.Func a call expression invokes (through
// selections and plain identifiers), or nil for indirect calls, builtins
// and conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// PathHasSuffix reports whether the package import path matches one of the
// configured suffixes: an exact match, or path ending in "/"+suffix. A
// suffix like "internal/engine" therefore matches both
// "blowfish/internal/engine" and an analysistest stand-in package whose
// path ends the same way.
func PathHasSuffix(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}
