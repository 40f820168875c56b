// Package noisesource forbids randomness that bypasses the internal/noise
// source. A recovered server draws the noise the pre-crash server would
// have drawn only because every variate comes from a noise.Source, a
// function of a seed or of a key and a release ordinal; a stray math/rand
// import, a crypto/rand draw, or a wall-clock seed breaks that equivalence
// silently — releases after a crash would stop matching the pre-crash
// server's and the crash suites would chase ghosts.
package noisesource

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"blowfish/internal/analysis"
)

// Config tunes the analyzer; zero fields take the repository defaults.
type Config struct {
	// BannedImports are import paths that must not appear outside the
	// allowlist. Defaults to math/rand, math/rand/v2 and crypto/rand.
	BannedImports []string
	// AllowPackages are import-path suffixes exempt from the import ban:
	// internal/noise (the one sanctioned consumer of math/rand/v2) and
	// internal/datagen (synthetic figure data, never served).
	AllowPackages []string
	// SeedFuncs are function names that, when called with a wall-clock
	// argument (any time.Now() in the argument tree), are flagged even in
	// allowed packages — a time-seeded stream can never replay.
	SeedFuncs []string
}

func (c *Config) fill() {
	if len(c.BannedImports) == 0 {
		c.BannedImports = []string{"math/rand", "math/rand/v2", "crypto/rand"}
	}
	if len(c.AllowPackages) == 0 {
		c.AllowPackages = []string{"internal/noise", "internal/datagen"}
	}
	if len(c.SeedFuncs) == 0 {
		c.SeedFuncs = []string{"NewSource", "NewPCG", "New", "NewChaCha8", "Seed"}
	}
}

// New constructs the analyzer. Default uses the repository layout.
func New(cfg Config) *analysis.Analyzer {
	cfg.fill()
	return &analysis.Analyzer{
		Name: "noisesource",
		Doc:  "forbid randomness outside the internal/noise source (crash-replay determinism)",
		Run:  func(pass *analysis.Pass) error { return run(pass, cfg) },
	}
}

// Default enforces the repository's real allowlist.
var Default = New(Config{})

func run(pass *analysis.Pass, cfg Config) error {
	allowedPkg := analysis.PathHasSuffix(pass.Pkg.Path(), cfg.AllowPackages)
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			// Tests seed however they like; they never serve releases.
			continue
		}
		if !allowedPkg {
			for _, imp := range file.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				for _, banned := range cfg.BannedImports {
					if path == banned {
						pass.Reportf(imp.Pos(), "import of %q outside internal/noise: all randomness must flow through noise.Source (crash replay would diverge)", path)
					}
				}
			}
		}
		// Nested constructors (rand.New(rand.NewPCG(time.Now()...))) put the
		// same wall-clock call in two argument trees; report it once, at
		// the outermost seeding call.
		reported := make(map[token.Pos]bool)
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			seedName := false
			for _, s := range cfg.SeedFuncs {
				if fn.Name() == s {
					seedName = true
					break
				}
			}
			if !seedName {
				return true
			}
			for _, arg := range call.Args {
				if pos, found := wallClockIn(pass.TypesInfo, arg); found && !reported[pos] {
					reported[pos] = true
					pass.Reportf(pos, "%s seeded from the wall clock: a time-seeded stream can never be replayed bit-for-bit after a crash; derive the seed from configuration", fn.Name())
				}
			}
			return true
		})
	}
	return nil
}

// wallClockIn reports a time.Now (or time.Since) call in the expression.
func wallClockIn(info *types.Info, e ast.Expr) (pos token.Pos, found bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if fn.Pkg().Path() == "time" && (fn.Name() == "Now" || fn.Name() == "Since") {
			pos, found = call.Pos(), true
			return false
		}
		return true
	})
	return pos, found
}
