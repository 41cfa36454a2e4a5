package experiments

import (
	"strings"
	"testing"
)

// TestScenarios is the determinism gate for every entry of Scenarios:
// two in-process runs at the table seed must succeed and produce
// byte-identical output — any wall-clock, goroutine or map-iteration
// leak into an event log, trace or metrics snapshot fails here — and
// the output must pass the scenario's check in scenarioChecks.
// `make determinism` repeats the comparison across processes.
func TestScenarios(t *testing.T) {
	names := map[string]bool{}
	for _, s := range Scenarios {
		names[s.Name] = true
	}
	for name := range scenarioChecks {
		if !names[name] {
			t.Errorf("scenarioChecks has a check for unknown scenario %q", name)
		}
	}
	for _, s := range Scenarios {
		t.Run(s.Name, func(t *testing.T) {
			run := func(i int) string {
				var buf strings.Builder
				if err := s.Run(s.Seed, &buf); err != nil {
					t.Fatalf("run %d at seed %d: %v\n%s", i, s.Seed, err, buf.String())
				}
				return buf.String()
			}
			a, b := run(1), run(2)
			if a != b {
				la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
				for i := 0; i < len(la) && i < len(lb); i++ {
					if la[i] != lb[i] {
						t.Fatalf("outputs diverge at line %d:\n run1: %s\n run2: %s", i+1, la[i], lb[i])
					}
				}
				t.Fatalf("outputs differ in length: %d vs %d bytes", len(a), len(b))
			}
			if check := scenarioChecks[s.Name]; check != nil {
				check(t, s.Seed, a)
			}
		})
	}
}

// scenarioChecks holds what a scenario's output must show beyond
// determinism, keyed by scenario name. Each check gets the seed the
// output was produced at.
var scenarioChecks = map[string]func(t *testing.T, seed int64, out string){
	// The whole fault matrix and the reactions the soak asserts on.
	"chaos": wantAll(
		"link-down", "link-up", "partition-ab", "heal-ab",
		"link-degrade", "link-restore", "eem-crash", "eem-restart",
		"filter-quarantine", "reconnected",
	),
	// At least one full fire and revert per policy engine.
	"adapt": wantAll("policy\tfire\tcompress", "policy\tfire\texpand",
		"policy\trevert\tcompress", "policy\trevert\texpand"),
	// The rule fires on flow.retrans_ratio and reverts after recovery.
	"flows": wantAll(
		"policy\tfire\tshed", "policy\trevert\tshed",
		"flow.retrans_ratio", "=== flows (after lossy leg) ===",
	),
	// Every leg of the fault matrix, its accounting, and the metrics.
	"migrate": wantAll(
		"leg clean", "leg corrupt-offer", "leg crash-post-commit", "leg round-trip",
		"outcomes account for every attempt",
		"migrate.attempts", "migrate.completed", "migrate.resumed", "migrate.aborted", "migrate.bytes",
	),
	"mmwave": checkMMWave,
}

// wantAll returns a check that out contains every one of want.
func wantAll(want ...string) func(*testing.T, int64, string) {
	return func(t *testing.T, _ int64, out string) {
		t.Helper()
		for _, w := range want {
			if !strings.Contains(out, w) {
				t.Fatalf("output missing %q:\n%s", w, out)
			}
		}
	}
}
