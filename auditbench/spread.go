package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// spreadMain repeats one workload in fresh processes, one seed each, and
// prints every metric's median, quartiles and quartile spread as a share
// of the median: the figures BENCHMARK.json's bounds are set from.
func spreadMain(args []string) error {
	fl := flag.NewFlagSet("spread", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload to repeat")
	runs := fl.Int("runs", 10, "number of runs")
	seed0 := fl.Uint64("seed0", 1, "seed of the first run; run i uses seed0+i")
	seconds := fl.Int("seconds", 10, "--seconds for each run")
	traceFlag := fl.Int("trace", 0, "--trace for each run")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *runs < 1 {
		return errors.New("spread: --runs must be at least 1")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failShares []string
	for i := 0; i < *runs; i++ {
		seed := *seed0 + uint64(i)
		cmd := exec.Command(self, "--workload", *workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(*seconds), "--trace", strconv.Itoa(*traceFlag))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, seed, err)
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var out output
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
			return fmt.Errorf("run %d: result line: %w", i, err)
		}
		if len(lines) > 1 {
			fmt.Fprintln(os.Stderr, lines[len(lines)-2])
		}
		if !out.Correct {
			return fmt.Errorf("run %d (seed %d) failed its output checks", i, seed)
		}
		failShares = append(failShares, fmt.Sprintf("%d/%d", out.Failed, out.Attempted))
		for name, mv := range out.Metrics {
			values[name] = append(values[name], mv.Value)
			units[name] = mv.Unit
		}
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	var b bytes.Buffer
	fmt.Fprintf(&b, "workload %s, %d runs, seeds %d..%d, failed/attempted %s\n",
		*workload, *runs, *seed0, *seed0+uint64(*runs-1), strings.Join(failShares, " "))
	fmt.Fprintf(&b, "%-34s %-6s %14s %14s %14s %8s\n", "metric", "unit", "q1", "median", "q3", "spread")
	for _, n := range names {
		q := quartiles(values[n])
		spread := 0.0
		if q[1] != 0 {
			spread = (q[2] - q[0]) / q[1]
		}
		fmt.Fprintf(&b, "%-34s %-6s %14.6g %14.6g %14.6g %7.2f%%\n", n, units[n], q[0], q[1], q[2], 100*spread)
	}
	_, err = os.Stdout.Write(b.Bytes())
	return err
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), with
// the median in the middle.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
