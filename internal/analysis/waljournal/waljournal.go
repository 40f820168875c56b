// Package waljournal enforces write-ahead ordering in the serving layer:
// durable state changes must hit the journal before they hit memory, and
// budget-bearing releases must hit the journal before their result is
// acknowledged. Recovery replays the WAL to reconstruct the registries and
// re-charge releases; a registry write that precedes its journal record
// can be observed by a client, then lost in a crash, and the replayed
// server will happily re-spend budget a client already saw spent — the
// exact durability hole PR 4's crash hammer exists to catch, moved from a
// stress test to a compile-time check.
//
// Two statement-order rules, both per-function approximations:
//
//  1. A mutation of a registry map field (s.policies[id] = e,
//     delete(s.datasets, id), ...) must be preceded, earlier in the same
//     function, by a call to a journaling helper.
//  2. A call to a budget-bearing release method (ReleaseHistogram, ...)
//     must be followed, later in the same function, by a journaling call
//     — the release record must be durable before the response writer
//     acks it.
//
// Recovery-path replay functions legitimately violate both (they *read*
// the journal) and carry //lint:allow waljournal on their doc comments.
package waljournal

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"blowfish/internal/analysis"
)

// Config tunes the analyzer; zero fields take the repository defaults.
type Config struct {
	// Packages are import-path suffixes to audit (the HTTP serving layer).
	Packages []string
	// RegistryFields are map-typed struct fields holding durable state;
	// writes to them must follow a journal call.
	RegistryFields []string
	// JournalFuncs are function or method names whose call counts as
	// journaling.
	JournalFuncs []string
	// ReleaseFuncs are method names that consume privacy budget and emit
	// noised output; their call must precede a journal call in the same
	// function.
	ReleaseFuncs []string
}

func (c *Config) fill() {
	if len(c.Packages) == 0 {
		c.Packages = []string{"internal/server", "internal/service", "internal/shard"}
	}
	if len(c.RegistryFields) == 0 {
		c.RegistryFields = []string{"policies", "datasets", "sessions", "streams"}
	}
	if len(c.JournalFuncs) == 0 {
		c.JournalFuncs = []string{"journal", "journalDelete", "journalRelease", "eventJournal", "epochJournal", "Append"}
	}
	if len(c.ReleaseFuncs) == 0 {
		c.ReleaseFuncs = []string{"ReleaseHistogram", "ReleasePartitionHistogram", "ReleaseCumulativeHistogram", "NewRangeReleaser", "ReleaseRangeAnswers"}
	}
}

// New constructs the analyzer. Default audits internal/server.
func New(cfg Config) *analysis.Analyzer {
	cfg.fill()
	return &analysis.Analyzer{
		Name: "waljournal",
		Doc:  "require journal-before-mutation and journal-before-ack ordering in the serving layer (crash durability)",
		Run:  func(pass *analysis.Pass) error { return run(pass, cfg) },
	}
}

// Default audits internal/server with the repository's helper names.
var Default = New(Config{})

func run(pass *analysis.Pass, cfg Config) error {
	if !analysis.PathHasSuffix(pass.Pkg.Path(), cfg.Packages) {
		return nil
	}
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
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

type mutation struct {
	pos   token.Pos
	field string
	kind  string // "write" or "delete"
}

func checkFunc(pass *analysis.Pass, cfg Config, fd *ast.FuncDecl) {
	var journals []token.Pos
	var mutations []mutation
	var releases []struct {
		pos  token.Pos
		name string
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if field, ok := registryIndex(pass.TypesInfo, cfg, lhs); ok {
					mutations = append(mutations, mutation{pos: lhs.Pos(), field: field, kind: "write"})
				}
			}
		case *ast.CallExpr:
			if fn := analysis.CalleeFunc(pass.TypesInfo, n); fn != nil {
				if contains(cfg.JournalFuncs, fn.Name()) {
					journals = append(journals, n.Pos())
				}
				if contains(cfg.ReleaseFuncs, fn.Name()) {
					releases = append(releases, struct {
						pos  token.Pos
						name string
					}{n.Pos(), fn.Name()})
				}
			}
			// delete is a builtin; CalleeFunc resolves only *types.Func.
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "delete" && len(n.Args) == 2 {
				if field, ok := registryField(pass.TypesInfo, cfg, n.Args[0]); ok {
					mutations = append(mutations, mutation{pos: n.Pos(), field: field, kind: "delete"})
				}
			}
		}
		return true
	})

	for _, m := range mutations {
		if !anyBefore(journals, m.pos) {
			pass.Reportf(m.pos,
				"registry %s of %q without a preceding journal append: a crash after this statement loses state a client may have observed (write-ahead order)",
				m.kind, m.field)
		}
	}
	for _, r := range releases {
		if !anyAfter(journals, r.pos) {
			pass.Reportf(r.pos,
				"%s result is not journaled before the function returns: a crash after the ack replays to a different ledger than the client saw (release record must be durable before the response)",
				r.name)
		}
	}
}

// registryIndex matches `recv.field[key]` on the left of an assignment.
func registryIndex(info *types.Info, cfg Config, e ast.Expr) (string, bool) {
	idx, ok := e.(*ast.IndexExpr)
	if !ok {
		return "", false
	}
	return registryField(info, cfg, idx.X)
}

// registryField matches a selector of a map-typed registry field.
func registryField(info *types.Info, cfg Config, e ast.Expr) (string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || !contains(cfg.RegistryFields, sel.Sel.Name) {
		return "", false
	}
	tv, ok := info.Types[e]
	if !ok {
		return "", false
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return "", false
	}
	return sel.Sel.Name, true
}

func anyBefore(ps []token.Pos, p token.Pos) bool {
	for _, q := range ps {
		if q < p {
			return true
		}
	}
	return false
}

func anyAfter(ps []token.Pos, p token.Pos) bool {
	for _, q := range ps {
		if q > p {
			return true
		}
	}
	return false
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
