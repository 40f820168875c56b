// Command loadbench is the repository's end-to-end benchmark. It starts
// blowfish-serve as a separate process on loopback, creates a workload's
// fixtures, and drives it open-loop: Poisson arrivals at a fixed rate,
// drawn from -seed, sent over two connections, each request timed from its
// intended send time so a stall is charged to every request it delays.
//
// Usage (run.sh builds both binaries from the checkout first):
//
//	bash loadbench/run.sh --workload release-inmem --seed 1 --seconds 10 --trace 0
//
// A run sets the server up five times (setup_s is the median), sends one
// second of discarded warm-up traffic, then measures a window of -seconds.
// Every response is checked, and after the window so are the server's
// ledgers: budgets, row counts, stream event counts, and on the durable
// workload the state recovered after a kill -9. With --trace 0 the last
// line of output reports the end-to-end metrics; with --trace 1 it reports
// per-layer metrics from the /metrics diff across the window, a 10 Hz
// sample of the ingest queue gauge, and the client-side spans, which are
// also written to <work>/trace-<workload>.csv. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name: "+workloadNames())
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Int("seconds", 10, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		bin     = flag.String("server", "", "path of the blowfish-serve binary")
		work    = flag.String("work", "", "directory for data directories and trace files")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *bin == "" || *work == "" {
		fmt.Fprintf(os.Stderr, "loadbench: need -workload (%s), -seconds >= 1, -trace 0|1, -server and -work\n", workloadNames())
		os.Exit(2)
	}
	res, err := run(context.Background(), runConfig{
		w: w, seed: *seed, warmup: time.Second, window: time.Duration(*seconds) * time.Second,
		setups: 5, trace: *trace == 1, bin: *bin, work: *work,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	metrics := res.e2e
	if *trace == 1 {
		metrics = res.layer
	}
	out := map[string]any{}
	for _, m := range metrics {
		fmt.Printf("%s %s %v %s\n", m.name, w.name, m.value, m.unit)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "loadbench: %s: check failed: %s\n", w.name, p)
	}
	line, err := json.Marshal(map[string]any{
		"correct": len(res.problems) == 0, "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if len(res.problems) > 0 {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
