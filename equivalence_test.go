package blowfish_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"blowfish"
)

// The equivalence suite pins every release to the outputs of the pre-engine
// per-release functions, bit for bit. legacyGoldensPath holds those outputs,
// captured by running recordReleases and collectContinuity with
// facadeFuncs at the last commit that still had the legacy functions
// (testdata/capture_legacy_goldens.go.txt is the writer). They are never
// regenerated from the engine: a release that drifts from the legacy bits
// is a failure, not a re-pin.
const legacyGoldensPath = "testdata/legacy_releases.json"

const (
	equivEps  = 0.7
	equivSeed = 12345
)

// equivCase is one policy kind over its natural domain.
type equivCase struct {
	name string
	pol  *blowfish.Policy
	ds   *blowfish.Dataset
	// part is the partition every case's partition histogram is taken over.
	part blowfish.Partition
}

func equivCases(t *testing.T) []equivCase {
	t.Helper()
	line, err := blowfish.LineDomain("v", 64)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := blowfish.GridDomain(12, 9)
	if err != nil {
		t.Fatal(err)
	}
	lineData := blowfish.NewDataset(line)
	for i := 0; i < 200; i++ {
		lineData.MustAdd(blowfish.Point((i * 13) % 64))
	}
	gridData := blowfish.NewDataset(grid)
	for i := 0; i < 200; i++ {
		gridData.MustAdd(blowfish.Point((i * 29) % (12 * 9)))
	}
	part, err := blowfish.UniformGridPartition(grid, []int{4, 3})
	if err != nil {
		t.Fatal(err)
	}
	linePart, err := blowfish.UniformGridPartition(line, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	l1, err := blowfish.DistanceThreshold(line, 5)
	if err != nil {
		t.Fatal(err)
	}
	linf, err := blowfish.LInfDistanceThreshold(grid, 2)
	if err != nil {
		t.Fatal(err)
	}
	lineGraph, err := blowfish.LineGraph(line)
	if err != nil {
		t.Fatal(err)
	}
	// Custom graphs: an explicit edge list (ring plus chords) over the line
	// domain, and a composed per-attribute product over the grid — the two
	// kinds the server accepts beyond the six built-ins.
	ringEdges := make([][2][]int, 0, 68)
	for i := 0; i < 64; i++ {
		ringEdges = append(ringEdges, [2][]int{{i}, {(i + 1) % 64}})
	}
	for _, chord := range [][2]int{{0, 32}, {8, 40}, {16, 56}, {5, 23}} {
		ringEdges = append(ringEdges, [2][]int{{chord[0]}, {chord[1]}})
	}
	explicit, _, err := blowfish.BuildGraph(line, blowfish.GraphSpec{
		Kind: "explicit", Name: "ring+chords", Edges: ringEdges,
	})
	if err != nil {
		t.Fatal(err)
	}
	product, _, err := blowfish.BuildGraph(grid, blowfish.GraphSpec{
		Kind: "compose", Op: "product",
		Graphs: []blowfish.GraphSpec{{Kind: "full"}, {Kind: "line"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Constrained policies (Section 8): a known marginal over a small
	// grid's first attribute (the Theorem 8.2 policy graph is built over
	// every pair of values, so the grid stays small), and a known count
	// over the line.
	small, err := blowfish.GridDomain(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	smallData := blowfish.NewDataset(small)
	for i := 0; i < 60; i++ {
		smallData.MustAdd(blowfish.Point((i * 7) % 12))
	}
	smallPart, err := blowfish.UniformGridPartition(small, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	marginal, err := blowfish.NewMarginal(small, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	marginalSet, err := marginal.Set(smallData)
	if err != nil {
		t.Fatal(err)
	}
	countSet, err := blowfish.ConstraintsFromDataset([]blowfish.CountQuery{
		{Name: "v<32", Pred: func(p blowfish.Point) bool { return p < 32 }},
	}, lineData)
	if err != nil {
		t.Fatal(err)
	}
	return []equivCase{
		{name: "full", pol: blowfish.DifferentialPrivacy(line), ds: lineData, part: linePart},
		{name: "attr", pol: blowfish.NewPolicy(blowfish.AttributeSecrets(grid)), ds: gridData, part: part},
		{name: "partition", pol: blowfish.NewPolicy(blowfish.PartitionedSecrets(part)), ds: gridData, part: part},
		{name: "l1", pol: blowfish.NewPolicy(l1), ds: lineData, part: linePart},
		{name: "linf", pol: blowfish.NewPolicy(linf), ds: gridData, part: part},
		{name: "line", pol: blowfish.NewPolicy(lineGraph), ds: lineData, part: linePart},
		{name: "explicit", pol: blowfish.NewPolicy(explicit), ds: lineData, part: linePart},
		{name: "product", pol: blowfish.NewPolicy(product), ds: gridData, part: part},
		{name: "constrained-marginal", pol: blowfish.NewConstrainedPolicy(blowfish.FullDomain(small), marginalSet), ds: smallData, part: smallPart},
		{name: "constrained-count", pol: blowfish.NewConstrainedPolicy(l1, countSet), ds: lineData, part: linePart},
	}
}

// releaseFuncs is one implementation of the five release kinds, in the
// signatures of the facade's one-shot functions.
type releaseFuncs struct {
	histogram  func(*blowfish.Policy, *blowfish.Dataset, float64, *blowfish.Source) ([]float64, error)
	partition  func(*blowfish.Policy, *blowfish.Dataset, blowfish.Partition, float64, *blowfish.Source) ([]float64, error)
	kmeans     func(*blowfish.Policy, *blowfish.Dataset, int, int, float64, *blowfish.Source) (blowfish.KMeansResult, error)
	cumulative func(*blowfish.Policy, *blowfish.Dataset, float64, *blowfish.Source) (*blowfish.CumulativeRelease, error)
	rangeRel   func(*blowfish.Policy, *blowfish.Dataset, int, float64, *blowfish.Source) (*blowfish.RangeReleaser, error)
}

// facadeFuncs are the facade's free release functions.
var facadeFuncs = releaseFuncs{
	histogram:  blowfish.ReleaseHistogram,
	partition:  blowfish.ReleasePartitionHistogram,
	kmeans:     blowfish.PrivateKMeans,
	cumulative: blowfish.ReleaseCumulativeHistogram,
	rangeRel:   blowfish.NewRangeReleaser,
}

// compiledFuncs mint a new session from cp for every release, ignoring the
// policy argument, as the server mints sessions from a policy compiled
// once at registration: the sessions share one plan and one dataset index.
func compiledFuncs(t *testing.T, cp *blowfish.CompiledPolicy) releaseFuncs {
	mint := func(src *blowfish.Source) releaseFuncs {
		t.Helper()
		s, err := cp.NewSession(100, src)
		if err != nil {
			t.Fatal(err)
		}
		return onSession(s)
	}
	return releaseFuncs{
		histogram: func(p *blowfish.Policy, ds *blowfish.Dataset, eps float64, src *blowfish.Source) ([]float64, error) {
			return mint(src).histogram(p, ds, eps, src)
		},
		partition: func(p *blowfish.Policy, ds *blowfish.Dataset, part blowfish.Partition, eps float64, src *blowfish.Source) ([]float64, error) {
			return mint(src).partition(p, ds, part, eps, src)
		},
		kmeans: func(p *blowfish.Policy, ds *blowfish.Dataset, k, iters int, eps float64, src *blowfish.Source) (blowfish.KMeansResult, error) {
			return mint(src).kmeans(p, ds, k, iters, eps, src)
		},
		cumulative: func(p *blowfish.Policy, ds *blowfish.Dataset, eps float64, src *blowfish.Source) (*blowfish.CumulativeRelease, error) {
			return mint(src).cumulative(p, ds, eps, src)
		},
		rangeRel: func(p *blowfish.Policy, ds *blowfish.Dataset, fanout int, eps float64, src *blowfish.Source) (*blowfish.RangeReleaser, error) {
			return mint(src).rangeRel(p, ds, fanout, eps, src)
		},
	}
}

// onSession runs every release on sess, ignoring the policy and source
// arguments, so a sequence shares one ledger and one noise stream.
func onSession(sess *blowfish.Session) releaseFuncs {
	return releaseFuncs{
		histogram: func(_ *blowfish.Policy, ds *blowfish.Dataset, eps float64, _ *blowfish.Source) ([]float64, error) {
			return sess.ReleaseHistogram(ds, eps)
		},
		partition: func(_ *blowfish.Policy, ds *blowfish.Dataset, part blowfish.Partition, eps float64, _ *blowfish.Source) ([]float64, error) {
			return sess.ReleasePartitionHistogram(ds, part, eps)
		},
		kmeans: func(_ *blowfish.Policy, ds *blowfish.Dataset, k, iters int, eps float64, _ *blowfish.Source) (blowfish.KMeansResult, error) {
			return sess.PrivateKMeans(ds, k, iters, eps)
		},
		cumulative: func(_ *blowfish.Policy, ds *blowfish.Dataset, eps float64, _ *blowfish.Source) (*blowfish.CumulativeRelease, error) {
			return sess.ReleaseCumulativeHistogram(ds, eps)
		},
		rangeRel: func(_ *blowfish.Policy, ds *blowfish.Dataset, fanout int, eps float64, _ *blowfish.Source) (*blowfish.RangeReleaser, error) {
			return sess.NewRangeReleaser(ds, fanout, eps)
		},
	}
}

// releaseGoldens maps "<case>/<kind>[/<part>]" to a released vector, or to
// the refusal text for kinds the policy does not support.
type releaseGoldens struct {
	Releases map[string][]float64 `json:"releases"`
	Errors   map[string]string    `json:"errors"`
}

func newReleaseGoldens() *releaseGoldens {
	return &releaseGoldens{Releases: map[string][]float64{}, Errors: map[string]string{}}
}

func (g *releaseGoldens) record(key string, vec []float64, err error) {
	if err != nil {
		g.Errors[key] = err.Error()
		return
	}
	g.Releases[key] = vec
}

// recordReleases records every release kind's output into g under prefix,
// each kind drawing its noise from src().
func recordReleases(t *testing.T, g *releaseGoldens, prefix string, tc equivCase, f releaseFuncs, src func() *blowfish.Source) {
	t.Helper()
	hist, err := f.histogram(tc.pol, tc.ds, equivEps, src())
	g.record(prefix+"/histogram", hist, err)

	blocks, err := f.partition(tc.pol, tc.ds, tc.part, equivEps, src())
	g.record(prefix+"/partition", blocks, err)

	km, err := f.kmeans(tc.pol, tc.ds, 3, 4, equivEps, src())
	var centroids []float64
	for _, c := range km.Centroids {
		centroids = append(centroids, c...)
	}
	g.record(prefix+"/kmeans/centroids", centroids, err)
	g.record(prefix+"/kmeans/objective", []float64{km.Objective}, err)

	cum, err := f.cumulative(tc.pol, tc.ds, equivEps, src())
	if err != nil {
		g.record(prefix+"/cumulative", nil, err)
	} else {
		g.record(prefix+"/cumulative/raw", cum.Raw, nil)
		g.record(prefix+"/cumulative/inferred", cum.Inferred, nil)
	}

	rr, err := f.rangeRel(tc.pol, tc.ds, 8, equivEps, src())
	if err != nil {
		g.record(prefix+"/range", nil, err)
		return
	}
	var ranges, cumulative []float64
	for _, q := range [][2]int{{0, 63}, {5, 40}, {17, 17}, {33, 62}} {
		v, err := rr.Range(q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		ranges = append(ranges, v)
	}
	for j := 0; j < int(tc.ds.Domain().Size()); j++ {
		v, err := rr.Cumulative(j)
		if err != nil {
			t.Fatal(err)
		}
		cumulative = append(cumulative, v)
	}
	g.record(prefix+"/range/ranges", ranges, nil)
	g.record(prefix+"/range/cumulative", cumulative, nil)
}

// equivSource is the fresh source every independent release draws from.
func equivSource() *blowfish.Source { return blowfish.NewSource(equivSeed) }

// continuityCases are the policies whose mixed-kind release sequence is
// pinned: an unconstrained one, and a constrained one whose refused kinds
// must not consume noise.
var continuityCases = map[string]bool{"l1": true, "constrained-count": true}

// collectContinuity records into g, per continuity case, two rounds of
// every release kind all drawing from the one stream that sequence(tc)
// feeds, so a kind that consumed the wrong number of draws shifts every
// later release.
func collectContinuity(t *testing.T, g *releaseGoldens, sequence func(equivCase) (releaseFuncs, *blowfish.Source)) {
	t.Helper()
	for _, tc := range equivCases(t) {
		if !continuityCases[tc.name] {
			continue
		}
		f, src := sequence(tc)
		for round := 0; round < 2; round++ {
			prefix := fmt.Sprintf("continuity/%s/round%d", tc.name, round)
			recordReleases(t, g, prefix, tc, f, func() *blowfish.Source { return src })
		}
	}
}

func loadLegacyGoldens(t *testing.T) *releaseGoldens {
	t.Helper()
	raw, err := os.ReadFile(legacyGoldensPath)
	if err != nil {
		t.Fatal(err)
	}
	g := newReleaseGoldens()
	if err := json.Unmarshal(raw, g); err != nil {
		t.Fatalf("%s: %v", legacyGoldensPath, err)
	}
	return g
}

// compareGoldens fails on every key whose value differs from want, and on
// every key present on one side only. Vectors compare by float bits; impl
// names the implementation under test.
func compareGoldens(t *testing.T, impl string, got, want *releaseGoldens) {
	t.Helper()
	for _, key := range unionKeys(got.Releases, want.Releases) {
		g, okG := got.Releases[key]
		w, okW := want.Releases[key]
		switch {
		case !okW:
			t.Errorf("%s %s: released %d values, legacy did not", impl, key, len(g))
		case !okG:
			t.Errorf("%s %s: no release, legacy released %d values", impl, key, len(w))
		case len(g) != len(w):
			t.Errorf("%s %s: %d values, legacy %d", impl, key, len(g), len(w))
		default:
			for i := range w {
				if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
					t.Errorf("%s %s[%d] = %v, legacy %v", impl, key, i, g[i], w[i])
					break
				}
			}
		}
	}
	for _, key := range unionKeys(got.Errors, want.Errors) {
		g, okG := got.Errors[key]
		w, okW := want.Errors[key]
		_, releasedG := got.Releases[key]
		_, releasedW := want.Releases[key]
		switch {
		case okG && okW && g != w:
			t.Errorf("%s %s: error %q, legacy %q", impl, key, g, w)
		case !okG && !releasedG:
			t.Errorf("%s %s: no outcome, legacy refused (%q)", impl, key, w)
		case !okW && !releasedW:
			t.Errorf("%s %s: refused (%q), legacy has no such release", impl, key, g)
		}
	}
}

func unionKeys[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range []map[string]V{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// withPrefix returns the goldens whose keys start with prefix.
func (g *releaseGoldens) withPrefix(prefix string) *releaseGoldens {
	out := newReleaseGoldens()
	for k, v := range g.Releases {
		if strings.HasPrefix(k, prefix) {
			out.Releases[k] = v
		}
	}
	for k, v := range g.Errors {
		if strings.HasPrefix(k, prefix) {
			out.Errors[k] = v
		}
	}
	return out
}

// TestEngineReleasesMatchLegacyBitForBit runs every release kind of every
// case through sessions minted from one CompiledPolicy and through the
// facade's one-shot functions: both must reproduce the legacy outputs and
// refusals exactly.
func TestEngineReleasesMatchLegacyBitForBit(t *testing.T) {
	want := loadLegacyGoldens(t)
	for _, tc := range equivCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			cp, err := blowfish.Compile(tc.pol)
			if err != nil {
				t.Fatal(err)
			}
			for _, impl := range []struct {
				name string
				f    releaseFuncs
			}{{"compiled", compiledFuncs(t, cp)}, {"facade", facadeFuncs}} {
				got := newReleaseGoldens()
				recordReleases(t, got, tc.name, tc, impl.f, equivSource)
				compareGoldens(t, impl.name, got, want.withPrefix(tc.name+"/"))
			}
		})
	}
}

// TestEngineSessionStreamContinuity runs the mixed-kind sequences on one
// session, and through the one-shot functions on one shared source: the
// noise stream must stay aligned with the legacy sequence across every
// release kind.
func TestEngineSessionStreamContinuity(t *testing.T) {
	want := loadLegacyGoldens(t).withPrefix("continuity/")
	session := newReleaseGoldens()
	collectContinuity(t, session, func(tc equivCase) (releaseFuncs, *blowfish.Source) {
		sess, err := blowfish.NewSession(tc.pol, 100, equivSource())
		if err != nil {
			t.Fatal(err)
		}
		return onSession(sess), nil
	})
	compareGoldens(t, "session", session, want)
	facade := newReleaseGoldens()
	collectContinuity(t, facade, func(equivCase) (releaseFuncs, *blowfish.Source) {
		return facadeFuncs, equivSource()
	})
	compareGoldens(t, "facade", facade, want)
}

// TestShardedSessionAccounting asserts a keyed session — the one servers
// run, drawing each release's noise from its own derived generator —
// still enforces the budget exactly.
func TestShardedSessionAccounting(t *testing.T) {
	dom, err := blowfish.LineDomain("v", 32)
	if err != nil {
		t.Fatal(err)
	}
	g, err := blowfish.DistanceThreshold(dom, 4)
	if err != nil {
		t.Fatal(err)
	}
	ds := blowfish.NewDataset(dom)
	for i := 0; i < 64; i++ {
		ds.MustAdd(blowfish.Point(i % 32))
	}
	cp, err := blowfish.Compile(blowfish.NewPolicy(g))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cp.NewKeyedSession(1.0, blowfish.SeedKey(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := sess.ReleaseHistogram(ds, 0.25); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
	}
	if _, err := sess.ReleaseHistogram(ds, 0.25); err == nil {
		t.Fatal("over-budget release accepted")
	}
	if rem := sess.Remaining(); rem > 1e-9 {
		t.Fatalf("remaining %v, want 0", rem)
	}
}
