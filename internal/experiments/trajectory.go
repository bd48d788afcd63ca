package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// trajectoryFile mirrors the shape cmd/benchjson appends to
// BENCH_trajectory.json: one entry per bench-archive run, dated, each
// carrying the standard Go benchmark readings.
type trajectoryFile struct {
	Entries []struct {
		Date       string `json:"date"`
		Benchmarks []struct {
			Name        string  `json:"name"`
			Iterations  int     `json:"iterations"`
			NsPerOp     float64 `json:"ns_per_op"`
			BytesPerOp  float64 `json:"bytes_per_op"`
			AllocsPerOp float64 `json:"allocs_per_op"`
		} `json:"benchmarks"`
	} `json:"entries"`
}

// Trajectory renders the benchmark history cmd/benchjson accumulates:
// one section per benchmark (sorted by name), one row per recorded run
// in file order (chronological — benchjson only appends). It is how
// EXPERIMENTS.md's perf-over-time tables are produced; rendering is
// pure formatting, so the table is reproducible from the JSON alone.
func Trajectory(path string) (string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var tf trajectoryFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		return "", fmt.Errorf("experiments: %s: %w", path, err)
	}

	type row struct {
		date        string
		iterations  int
		nsPerOp     float64
		bytesPerOp  float64
		allocsPerOp float64
	}
	byName := map[string][]row{}
	for _, e := range tf.Entries {
		for _, b := range e.Benchmarks {
			byName[b.Name] = append(byName[b.Name], row{
				date:        e.Date,
				iterations:  b.Iterations,
				nsPerOp:     b.NsPerOp,
				bytesPerOp:  b.BytesPerOp,
				allocsPerOp: b.AllocsPerOp,
			})
		}
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	fmt.Fprintf(&b, "benchmark trajectory (%s): %d runs, %d benchmarks\n", path, len(tf.Entries), len(names))
	for _, name := range names {
		fmt.Fprintf(&b, "\n%s\n", name)
		fmt.Fprintf(&b, "  %-12s %8s %12s %10s %12s\n", "date", "iters", "ms/op", "MB/op", "allocs/op")
		for _, r := range byName[name] {
			fmt.Fprintf(&b, "  %-12s %8d %12.1f %10.1f %12.0f\n",
				r.date, r.iterations, r.nsPerOp/1e6, r.bytesPerOp/1e6, r.allocsPerOp)
		}
	}
	return b.String(), nil
}
