package experiments

import (
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// checkMMWave is the mmwave scenario's check in TestScenarios: the
// trace table, all three legs and the RESULT summary are present, the
// three legs delivered one payload (one SHA, three mentions), and the
// RESULT line reproduces the committed BENCH_mmwave.json exactly.
func checkMMWave(t *testing.T, seed int64, out string) {
	wantAll(
		"blockage trace \"mmwave-urban\"",
		"leg baseline", "leg mwin", "leg mwin+shed",
		"shed timeline", "RESULT mmwave",
	)(t, seed, out)
	shaLine := ""
	for _, line := range strings.Split(out, "\n") {
		if i := strings.Index(line, "sha="); i >= 0 && strings.HasPrefix(line, "leg ") {
			sha := line[i:]
			if shaLine == "" {
				shaLine = sha
			} else if sha != shaLine {
				t.Fatalf("legs delivered different payloads: %s vs %s", shaLine, sha)
			}
		}
	}
	if shaLine == "" {
		t.Fatal("no per-leg sha lines in output")
	}
	checkMMWaveRecord(t, seed, out)
}

// mmwaveRecord is the schema of BENCH_mmwave.json: the mmwave
// scenario's RESULT line at one seed.
type mmwaveRecord struct {
	Scenario     string  `json:"scenario"`
	Seed         int64   `json:"seed"`
	BaselineBps  int64   `json:"baseline_bps"`
	MwinBps      int64   `json:"mwin_bps"`
	ManagedBps   int64   `json:"managed_bps"`
	BaselinePeak int64   `json:"baseline_peak"`
	MwinPeak     int64   `json:"mwin_peak"`
	ManagedPeak  int64   `json:"managed_peak"`
	Speedup      float64 `json:"speedup"`
}

// checkMMWaveRecord compares the RESULT line of a mmwave run with the
// committed BENCH_mmwave.json. The scenario runs on virtual time, so
// the same seed must reproduce every field exactly: any drift means
// link, TCP, filter or policy behavior changed, and the record must
// be re-cut deliberately — the failure prints the JSON to commit.
// The scenario's own acceptance bars (managed >= 1.5x baseline, both
// proxy peaks below the baseline's) are asserted by MMWaveDemo.
func checkMMWaveRecord(t *testing.T, seed int64, out string) {
	t.Helper()
	raw, err := os.ReadFile("../../BENCH_mmwave.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec mmwaveRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("BENCH_mmwave.json: %v", err)
	}
	got := mmwaveRecord{Scenario: "mmwave", Seed: seed}
	ints := map[string]*int64{
		"baseline_bps": &got.BaselineBps, "mwin_bps": &got.MwinBps, "managed_bps": &got.ManagedBps,
		"baseline_peak": &got.BaselinePeak, "mwin_peak": &got.MwinPeak, "managed_peak": &got.ManagedPeak,
	}
	line := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "RESULT mmwave ") {
			line = l
		}
	}
	for _, field := range strings.Fields(strings.TrimPrefix(line, "RESULT mmwave ")) {
		k, v, _ := strings.Cut(field, "=")
		if k == "speedup" {
			got.Speedup, err = strconv.ParseFloat(v, 64)
		} else if p, ok := ints[k]; ok {
			*p, err = strconv.ParseInt(v, 10, 64)
		} else {
			t.Fatalf("RESULT mmwave has unknown field %q", field)
		}
		if err != nil {
			t.Fatalf("RESULT mmwave field %q: %v", field, err)
		}
	}
	if got != rec {
		want, _ := json.MarshalIndent(got, "", "  ") // cannot fail on a flat struct
		t.Fatalf("RESULT mmwave differs from the committed BENCH_mmwave.json\n"+
			" committed: %+v\n got:       %+v\nif the change is intended, commit:\n%s",
			rec, got, want)
	}
}
