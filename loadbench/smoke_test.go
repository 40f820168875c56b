package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestSmokeWorkloads builds blowfish-serve from the enclosing repository
// and runs every workload for one second against it, traced, asserting
// that no request fails and every check passes.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server")
	}
	if _, err := os.Stat("../cmd/blowfish-serve"); err != nil {
		t.Skip("no blowfish-serve source beside the benchmark")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "blowfish-serve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/blowfish-serve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building blowfish-serve: %v\n%s", err, out)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := run(context.Background(), runConfig{
				w: w, seed: 7, warmup: 200 * time.Millisecond, window: time.Second,
				setups: 1, trace: true, bin: bin, work: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.problems) > 0 {
				t.Fatalf("checks failed: %v", res.problems)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Fatalf("%d of %d requests failed", res.failed, res.attempted)
			}
			for _, m := range res.e2e {
				if m.value <= 0 {
					t.Errorf("end-to-end metric %s = %g, want > 0", m.name, m.value)
				}
			}
			if len(res.layer) == 0 {
				t.Error("traced run reported no per-layer metrics")
			}
		})
	}
}
