package main

import (
	"math"
	"os"
	"testing"
)

// The fixtures are two real scrapes of blowfish-serve -shards 2, trimmed to
// the families the benchmark reads: one histogram release before, one more
// histogram and a range release after. The front's registry carries no
// shard label; each core's registry puts its shard="<i>" const label first.
func loadExposition(t *testing.T, name string) exposition {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	e, err := parseExposition(string(b))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestParseExpositionLabels(t *testing.T) {
	e := loadExposition(t, "sharded-after.prom")
	s, ok := e[`blowfish_http_request_seconds_count{route="POST /v1/sessions/{id}/releases/range"}`]
	if !ok || s.name != "blowfish_http_request_seconds_count" || s.labels["route"] != "POST /v1/sessions/{id}/releases/range" || s.value != 1 {
		t.Fatalf("route series parsed as %+v (found %v)", s, ok)
	}
	s = e[`blowfish_release_seconds_bucket{shard="1",policy="pol-1",kind="histogram",le="+Inf"}`]
	want := map[string]string{"shard": "1", "policy": "pol-1", "kind": "histogram", "le": "+Inf"}
	for k, v := range want {
		if s.labels[k] != v {
			t.Errorf("label %s = %q, want %q", k, s.labels[k], v)
		}
	}
	if s.value != 2 {
		t.Errorf("+Inf bucket = %g, want 2", s.value)
	}
}

func TestExpositionDiff(t *testing.T) {
	d := diff(loadExposition(t, "sharded-before.prom"), loadExposition(t, "sharded-after.prom"))
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	mean, count := d.histMean("blowfish_http_request_seconds", map[string]string{"route": "POST /v1/sessions/{id}/releases/histogram"})
	near("histogram route count", count, 1)
	near("histogram route mean", mean, 0.00031287700000000003-9.9742e-05)
	mean, count = d.histMean("blowfish_release_seconds", map[string]string{"kind": "range"})
	near("range engine count", count, 1)
	near("range engine mean", mean, 2.4668e-05)
	_, count = d.histMean("blowfish_release_seconds", nil)
	near("engine releases", count, 2)
	perShard := d.byLabel("blowfish_releases_total", "shard")
	if len(perShard) != 1 || perShard["1"] != 2 {
		t.Errorf("releases by shard = %v, want shard 1: 2", perShard)
	}
	if got := d.sum("blowfish_http_request_seconds_count", map[string]string{"route": "GET /v1/sessions/{id}"}); got != 0 {
		t.Errorf("untouched route moved by %g", got)
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	for _, text := range []string{
		"no_value_here",
		`m{route="x} 1`,
		`m{route} 1`,
		"m 1x",
	} {
		if _, err := parseExposition(text); err == nil {
			t.Errorf("parseExposition(%q) succeeded", text)
		}
	}
}
