package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
)

// steady runs every workload n times, each in a child process with its
// own seed, alternating the workload order from one round to the next,
// and prints each end-to-end metric's median, quartiles and spread: the
// interquartile distance as a share of the median. A metric's bound in
// BENCHMARK.json should be at least three times its spread.
func steady(n int, seed int64, seconds int, outDir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{}
	failShare := map[string]map[string]bool{}
	for round := 0; round < n; round++ {
		order := append([]string(nil), workloadOrder...)
		if round%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, name := range order {
			s := seed + int64(round)
			res, err := child(exe, name, s, seconds, outDir)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, s, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: run is not correct", name, s)
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
				failShare[name] = map[string]bool{}
			}
			for k, m := range res.Metrics {
				values[name][k] = append(values[name][k], m.Value)
			}
			failShare[name][strconv.Itoa(res.Failed)+"/"+strconv.Itoa(res.Attempted)] = true
			fmt.Fprintf(os.Stderr, "steady: round %d %s seed %d done\n", round+1, name, s)
		}
	}
	fmt.Printf("%-8s %-16s %12s %12s %12s %8s %8s\n", "workload", "metric", "q1", "median", "q3", "spread", "3xspread")
	for _, name := range workloadOrder {
		for _, k := range sortedKeys(values[name]) {
			xs := values[name][k]
			q1, _, q3 := quartiles(xs)
			sp := spread(xs)
			fmt.Printf("%-8s %-16s %12.6g %12.6g %12.6g %8.4f %8.4f\n", name, k, q1, median(xs), q3, sp, 3*sp)
		}
		fmt.Printf("%-8s failed/attempted seen: %v\n", name, sortedKeys(failShare[name]))
	}
	return nil
}

// child runs one workload in a child process and parses its last line.
func child(exe, name string, seed int64, seconds int, outDir string) (*result, error) {
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0", "--out", outDir)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	os.WriteFile(filepath.Join(outDir, fmt.Sprintf("record-%s-seed%d.txt", name, seed)), out, 0o644)
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("parsing the result line: %w", err)
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) {
			return nil, fmt.Errorf("metric %s is NaN", k)
		}
	}
	return &res, nil
}
