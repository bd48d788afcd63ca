package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"deviant/internal/corpus"
	"deviant/internal/service"
)

// Every input is a pure function of the workload seed, so the same seed
// gives byte-identical trees, edit schedule and arrival times. Nothing
// the program receives names the workload or the seed: it sees source
// files and analyze requests only.

// Workload constants, frozen so later changes are measured against the
// same load.
const (
	// editRate is edit-stream's offered load, about a third of the
	// seed commit's measured capacity on a 2-vCPU host (nproc ÷
	// cpu_s_per_op); see WORKLOADS.md.
	editRate = 3.5 // requests per second
)

// Latency limits for within_limit_share: four to six times the seed
// commit's median on a 2-vCPU host.
var latencyLimit = map[string]time.Duration{
	"cold-tree":   time.Second,
	"edit-stream": 600 * time.Millisecond,
	"fleet-cold":  1500 * time.Millisecond,
}

// seedTree generates the workload's tree: the linux247 shape (80
// modules × 17 functions, seeded bugs) with the workload seed as the
// corpus seed, the same tree corpusgen -seed writes.
func seedTree(seed int64) *corpus.Corpus {
	spec := corpus.Linux247()
	spec.Seed = seed
	return corpus.Generate(spec)
}

// writeTree materializes c's sources (not its ground truth) under dir.
func writeTree(c *corpus.Corpus, dir string) error {
	for name, src := range c.Files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// edit is one edit-stream request: the base tree with a clean function
// appended to one unit. Appending leaves every seeded bug on its line.
type edit struct {
	unit string
	fn   string
}

// editSchedule draws n edits from the seed.
func editSchedule(seed int64, units []string, n int) []edit {
	rng := rand.New(rand.NewSource(seed))
	out := make([]edit, n)
	for i := range out {
		out[i] = edit{
			unit: units[rng.Intn(len(units))],
			fn:   fmt.Sprintf("\nint edit_%d_%d(int x)\n{\n\treturn x + %d;\n}\n", i, rng.Intn(1000), i),
		}
	}
	return out
}

// apply returns the base sources with e applied; base is not modified.
func (e edit) apply(base map[string]string) map[string]string {
	out := make(map[string]string, len(base))
	for k, v := range base {
		out[k] = v
	}
	out[e.unit] += e.fn
	return out
}

// salted returns a generator of fleet-cold's per-operation trees:
// each call appends a distinct seeded comment to every translation
// unit of base, so every unit's content digest is new (the fleet's
// snapshot stores take inserts and evictions, never hits) while the
// parse trees, the analysis work and every seeded bug's line stay
// those of base.
func salted(seed int64, base map[string]string) func() map[string]string {
	rng := rand.New(rand.NewSource(seed))
	return func() map[string]string {
		salt := fmt.Sprintf("/* %016x */\n", rng.Uint64())
		m := make(map[string]string, len(base))
		for k, v := range base {
			if strings.HasSuffix(k, ".c") {
				v += salt
			}
			m[k] = v
		}
		return m
	}
}

// arrivals returns n due times at the fixed rate, relative to the
// start of the measured phase. Arrivals are evenly spaced rather than
// Poisson: the open loop exists to expose backlog, and bursts would
// make a short run's p90 depend on where they fell.
func arrivals(n int, rate float64) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// analyzeBody encodes a deviantd /v1/analyze request with default
// options, as a client would send it.
func analyzeBody(sources map[string]string) ([]byte, error) {
	return json.Marshal(service.AnalyzeRequest{Sources: sources})
}
