// Package budgetcharge flags exported release paths that can return
// noised output without charging the privacy accountant. The Blowfish
// ε-guarantee (He et al., SIGMOD 2014, Theorems 3.6/4.1) is an accounting
// statement: a mechanism is (ε,P)-private only if every published draw is
// added to the cumulative ledger. A release path that samples Laplace or
// geometric noise and returns without a dominating Accountant.Spend keeps
// the guarantee's math while silently dropping its bookkeeping — the
// worst failure mode, because outputs still look correctly noisy.
//
// The check is a conservative reachability approximation, not a full
// dominance analysis: a function "draws noise" if its body (nested
// closures included) calls a noise.Source sampler or any function already
// known to draw noise, and it "charges" if it calls
// Accountant.Spend/SpendParallel/Charge or a function known to charge.
// Facts propagate across packages in dependency order, so
// stream.CloseEpoch inherits "charges" from engine.ReleaseHistogram.
// Exported functions in the audited packages that draw noise without
// charging are reported. Mechanism-level APIs that are uncharged by
// design (package mechanism, ordered, kmeans — always charged by their
// callers) live outside the audited set; deliberately uncharged exported
// paths inside it carry //lint:allow budgetcharge annotations.
package budgetcharge

import (
	"go/ast"
	"go/types"

	"blowfish/internal/analysis"
)

// Fact kinds exported through the driver's store.
const (
	factNoisy   = "budgetcharge.noisy"
	factCharges = "budgetcharge.charges"
)

// Config tunes the analyzer; zero fields take the repository defaults.
type Config struct {
	// ReportPackages are import-path suffixes whose exported functions
	// must charge when they draw noise: the root facade and the two
	// serving layers.
	ReportPackages []string
	// SamplerType/SamplerMethods identify the noise primitives: methods of
	// the named type (any package) whose call marks a function as drawing
	// noise.
	SamplerType    string
	SamplerMethods []string
	// AccountantType/ChargeMethods identify the budget ledger: calling one
	// of these methods on the named type marks a function as charging.
	AccountantType string
	ChargeMethods  []string
}

func (c *Config) fill() {
	if len(c.ReportPackages) == 0 {
		c.ReportPackages = []string{"blowfish", "internal/engine", "internal/stream"}
	}
	if c.SamplerType == "" {
		c.SamplerType = "Source"
	}
	if len(c.SamplerMethods) == 0 {
		c.SamplerMethods = []string{"Laplace", "TwoSidedGeometric", "Gaussian"}
	}
	if c.AccountantType == "" {
		c.AccountantType = "Accountant"
	}
	if len(c.ChargeMethods) == 0 {
		c.ChargeMethods = []string{"Spend", "SpendParallel", "Charge"}
	}
}

// New constructs the analyzer. Default audits the repository layout.
func New(cfg Config) *analysis.Analyzer {
	cfg.fill()
	return &analysis.Analyzer{
		Name: "budgetcharge",
		Doc:  "flag exported release paths that draw noise without charging the accountant (ε-guarantee bookkeeping)",
		Run:  func(pass *analysis.Pass) error { return run(pass, cfg) },
	}
}

// Default audits blowfish, internal/engine and internal/stream.
var Default = New(Config{})

// fnInfo is the per-function summary the fixpoint iterates over.
type fnInfo struct {
	decl    *ast.FuncDecl
	key     string
	noisy   bool
	charges bool
	callees []string
}

func run(pass *analysis.Pass, cfg Config) error {
	var fns []*fnInfo
	byKey := make(map[string]*fnInfo)

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			info := &fnInfo{decl: fd}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				info.key = analysis.FuncKey(fn)
			}
			scanBody(pass, cfg, fd, info)
			fns = append(fns, info)
			if info.key != "" {
				byKey[info.key] = info
			}
		}
	}

	// Fixpoint: propagate noisy/charges through the package-local call
	// graph; cross-package callees resolve against the shared fact store
	// (dependencies were analyzed first).
	for changed := true; changed; {
		changed = false
		for _, fi := range fns {
			for _, callee := range fi.callees {
				noisy := pass.Facts.Has(factNoisy, callee)
				charges := pass.Facts.Has(factCharges, callee)
				if local, ok := byKey[callee]; ok {
					noisy = noisy || local.noisy
					charges = charges || local.charges
				}
				if noisy && !fi.noisy {
					fi.noisy = true
					changed = true
				}
				if charges && !fi.charges {
					fi.charges = true
					changed = true
				}
			}
		}
	}

	for _, fi := range fns {
		if fi.key == "" {
			continue
		}
		if fi.noisy {
			pass.Facts.Set(factNoisy, fi.key)
		}
		if fi.charges {
			pass.Facts.Set(factCharges, fi.key)
		}
	}

	if !analysis.PathHasSuffix(pass.Pkg.Path(), cfg.ReportPackages) {
		return nil
	}
	for _, fi := range fns {
		if !fi.noisy || fi.charges {
			continue
		}
		fd := fi.decl
		if !fd.Name.IsExported() || !exportedRecv(fd) {
			// Unexported helpers are charged (or not) by their callers;
			// their facts flowed upward above.
			continue
		}
		pass.Reportf(fd.Name.Pos(),
			"exported release path %s draws noise but no Accountant.%v charge dominates it: noised output could be published without spending ε (Theorem 4.1 bookkeeping)",
			fd.Name.Name, cfg.ChargeMethods)
	}
	return nil
}

// exportedRecv reports whether the receiver type (if any) is exported,
// i.e. the method is reachable from outside the package.
func exportedRecv(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return true
	}
	t := fd.Recv.List[0].Type
	for {
		switch u := t.(type) {
		case *ast.StarExpr:
			t = u.X
		case *ast.IndexExpr:
			t = u.X
		case *ast.IndexListExpr:
			t = u.X
		case *ast.Ident:
			return u.IsExported()
		default:
			return true
		}
	}
}

// scanBody records direct sampler/charge calls and the callee keys of
// every resolvable call, nested function literals included.
func scanBody(pass *analysis.Pass, cfg Config, fd *ast.FuncDecl, info *fnInfo) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		if recv := recvTypeName(fn); recv != "" {
			if recv == cfg.SamplerType && contains(cfg.SamplerMethods, fn.Name()) {
				info.noisy = true
			}
			if recv == cfg.AccountantType && contains(cfg.ChargeMethods, fn.Name()) {
				info.charges = true
			}
		}
		if key := analysis.FuncKey(fn); key != "" {
			info.callees = append(info.callees, key)
		}
		return true
	})
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
