// Package experiments regenerates every table- and figure-shaped
// artifact of the thesis (see DESIGN.md's per-experiment index,
// E1–E16). Each experiment builds a fresh deterministic simulation via
// internal/core, drives the scenario, and prints its result through
// internal/trace. cmd/wsim runs them from the command line; the
// repository benchmarks wrap them for `go test -bench`.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/faults"
)

// Experiment is one runnable reproduction.
type Experiment struct {
	ID          string
	Paper       string // the thesis artifact it regenerates
	Description string
	Run         func(w io.Writer)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// All returns the experiments sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		// Numeric-aware: E2 before E10.
		a, b := out[i].ID, out[j].ID
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return out
}

// Run executes one experiment by ID.
func Run(id string, w io.Writer) error {
	e, ok := registry[id]
	if !ok {
		return fmt.Errorf("experiments: unknown id %q", id)
	}
	fmt.Fprintf(w, "=== %s — %s ===\n%s\n\n", e.ID, e.Paper, e.Description)
	e.Run(w)
	return nil
}

// RunAll executes every experiment in order.
func RunAll(w io.Writer) {
	for _, e := range All() {
		Run(e.ID, w)
		fmt.Fprintln(w)
	}
}

// Scenario is one seeded, self-asserting end-to-end scenario. Run
// writes the scenario's whole output to w and returns an error when
// one of the scenario's own checks fails; the output is a function of
// the seed alone, byte for byte.
type Scenario struct {
	Name string
	Seed int64 // the seed the determinism gates and committed records use
	Doc  string
	Run  func(seed int64, w io.Writer) error
}

// Scenarios is every scenario, in the order `wsim -list` prints them.
var Scenarios = []Scenario{
	{"events", 7, "observability demo: full event log + metrics snapshot", ObsDemo},
	{"chaos", 11, "chaos soak: fault matrix + resilience assertions", faults.Chaos},
	{"adapt", 13, "adaptive services: policy engines close the EEM→SP loop around a link degradation", AdaptDemo},
	{"flows", 17, "flow-log analytics: per-flow records drive a policy rule on the fleet retrans ratio", FlowsDemo},
	{"migrate", 23, "live stream migration: proxy-to-proxy handoff under a fault matrix", MigrateDemo},
	{"mmwave", 7, "5G mmWave: blockage-trace replay, mwin window control and LTE shedding vs a no-proxy baseline", MMWaveDemo},
}
