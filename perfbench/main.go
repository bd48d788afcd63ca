// Command perfbench is the repository benchmark's load generator. It
// drives the shipped entry points — the deviant CLI, a local deviantd,
// and a deviantd coordinator with two workers — on linux247-shaped
// corpora drawn from the workload seed, checks every operation against
// the generator's seeded ground truth, and prints a metric table
// followed by one JSON result line.
//
// Build and run it through run.sh, which builds the binaries first:
//
//	bash perfbench/run.sh --workload cold-tree --seed 1 --seconds 30 --trace 0
//
// With -trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with -trace 1 it replays the workload's operations in-process, timing
// each layer's exported entry points from outside the program, and
// reports the per-layer metrics. WORKLOADS.md explains the workloads and
// where each metric comes from.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config carries the invocation's arguments to the workloads.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	bin      string // directory holding deviant and deviantd
	dir      string // this run's scratch directory (trees, logs, trace)
}

var workloads = map[string]struct {
	untraced func(*config) (*result, error)
	traced   func(*config) (*result, error)
}{
	"cold-tree":   {runColdTree, replayColdTree},
	"edit-stream": {runEditStream, replayEditStream},
	"fleet-cold":  {runFleetCold, replayFleetCold},
}

func main() {
	workload := flag.String("workload", "", "cold-tree, edit-stream or fleet-cold")
	seed := flag.Int64("seed", 1, "workload seed: every input is drawn from it")
	seconds := flag.Int("seconds", 30, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 replays in-process and reports per-layer metrics")
	bin := flag.String("bin", "", "directory holding the deviant and deviantd binaries")
	work := flag.String("work", "", "scratch directory for trees, logs and traces")
	flag.Parse()

	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *bin == "" || *work == "" {
		fmt.Fprintln(os.Stderr, "usage: perfbench -bin DIR -work DIR --workload cold-tree|edit-stream|fleet-cold --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-seed%d-trace%d-%d", *workload, *seed, *trace, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		die(err)
	}
	cfg := &config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, bin: *bin, dir: dir}
	run := w.untraced
	if *trace == 1 {
		run = w.traced
	}
	res, err := run(cfg)
	if err != nil {
		die(err)
	}
	// The scratch directory holds generated trees; only the logs and the
	// trace are worth keeping.
	_ = os.RemoveAll(filepath.Join(dir, "trees"))
	printTable(res)
	line, err := json.Marshal(res)
	if err != nil {
		die(err)
	}
	fmt.Println(string(line))
}

func die(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// printTable prints every metric by name with its unit, one per line,
// ahead of the JSON line.
func printTable(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("%-34s %14d of %d attempted, correct=%v\n", "failed", res.Failed, res.Attempted, res.Correct)
}
