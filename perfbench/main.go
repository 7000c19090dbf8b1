// Command perfbench is the end-to-end benchmark of the TAPAS serving
// stack. One process runs service.New + service.NewHandler behind a
// loopback HTTP server and drives it with closed-loop clients over
// POST /v1/search, replaying one shared request list under one of four
// server configurations (workloads): cold, warm, restore and scatter.
//
//	perfbench --workload cold --seed 1 --seconds 20 --trace 0
//	perfbench --steady 10 --seconds 20
//
// With --trace 0 the run measures the end-to-end metrics; with
// --trace 1 it is the traced run that times every layer from outside
// and reports the per-layer metrics. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --steady N runs every workload N times in child processes and prints
// each end-to-end metric's median and quartiles. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", "))
	seed := flag.Int64("seed", 1, "seed of the request orders")
	seconds := flag.Int("seconds", 20, "least seconds a run measures (runs are whole rounds, at least 20)")
	traced := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	steadyN := flag.Int("steady", 0, "run every workload this many times in child processes and print each metric's median and quartiles")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span files and scratch corpora")
	flag.Parse()

	if *steadyN > 0 {
		if err := steady(*steadyN, *seed, *seconds, *out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadOrder, ", "))
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := runOne(w, *seed, *seconds, *traced == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runOne runs one workload and prints its run record before returning
// the result line.
func runOne(w workload, seed int64, seconds int, traced bool, out string) (*result, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	env := runEnv{
		seed:    seed,
		seconds: seconds,
		scratch: scratch,
		outDir:  out,
		log:     func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	}
	env.log("perfbench workload=%s seed=%d seconds=%d trace=%v gomaxprocs=%d go=%s",
		w.name, seed, seconds, traced, runtime.GOMAXPROCS(0), runtime.Version())
	stolen0, total0, stealOK := steal()
	t0 := time.Now()

	ctx := context.Background()
	var res *result
	if traced {
		res, err = tracedRun(ctx, w, env)
	} else {
		res, err = timedRun(ctx, w, env)
	}
	if err != nil {
		return nil, err
	}

	if stolen1, total1, ok := steal(); stealOK && ok && total1 > total0 {
		env.log("steal: %.2f s of %.2f s machine CPU time over the run (%.2f%%)",
			float64(stolen1-stolen0)/100, float64(total1-total0)/100,
			100*float64(stolen1-stolen0)/float64(total1-total0))
	} else {
		env.log("steal: unavailable")
	}
	env.log("run wall time: %.2f s", time.Since(t0).Seconds())
	for _, k := range sortedKeys(res.Metrics) {
		env.log("metric %-28s %14.6g %s", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	env.log("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	return res, nil
}
