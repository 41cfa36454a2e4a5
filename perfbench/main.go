// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator and the concurrent data plane from outside, through
// their public calls only, measures host cost and latency, checks
// every output, and prints one JSON result line.
//
//	perfbench --workload mmwave-bulk --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it runs the workload untraced, then traced with timers
// around each layer's public entry points, then once more recording
// every allocation, and prints the per-layer metrics instead. See
// PREDICTIONS.md for what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// result is what one unit of a workload measured: one set-up, one
// measured phase, one teardown.
type result struct {
	setup     time.Duration
	wall      time.Duration   // measured phase, host time
	payload   int64           // application payload bytes delivered
	pkts      int64           // datagrams through the proxy
	ops       []time.Duration // host time of each operation
	windows   []window        // throughput samples; one per unit on the simulator
	heap      uint64          // peak heap bytes sampled during the measured phase
	exact     exact
	attempted int64
	failed    int64
	plane     planeCounters
	gc        runtimeStats
}

// exact holds the unit's counts and virtual-time results: the same
// seed gives the same values on every run, traced or not.
type exact struct {
	Events, LinkPkts, QueueDrops, ZeroCapDrops, PeakQueue int64
	Intercepted, RegistryMisses                           int64
	FlowOpened, FlowEvicted, FlowRetrans                  int64
	TCPSegs, OutSegs, Retrans                             int64
	PolicyFires, PolicyReverts                            int64
	Ops, Payload                                          int64
	Goodput, FctP50, FctP99                               float64 // Mb/s and ms, virtual time
}

// window is a stretch of a measured phase: host time and the work
// done in it.
type window struct {
	wall          time.Duration
	payload, pkts int64
}

// planeCounters are the data plane's handoff counters; they depend on
// thread timing, so they are measured, not compared.
type planeCounters struct{ bursts, batches, wakeups, stalls int64 }

type workload interface {
	// unit sets up, runs one measured phase on the inputs of unit k of
	// the run and tears down. tr is nil on the untraced run.
	unit(k int, tr *tracer) (result, error)
}

// unitSeed derives the inputs of unit k from the run's seed. A run's
// units see different inputs, so its medians cover many draws rather
// than one; the same seed still gives the same inputs.
func unitSeed(seed int64, k int) int64 {
	r := rng(uint64(seed) ^ uint64(k)*0xd1b54a32d192ed03)
	return int64(r.next() >> 1)
}

// workloads builds each workload's inputs from the seed.
var workloads = map[string]func(seed int64) workload{
	"mmwave-bulk": func(seed int64) workload { return newMMWaveBulk(seed) },
	"sim-churn":   func(seed int64) workload { return newSimChurn(seed) },
	"plane-burst": func(seed int64) workload { return newPlaneBurst(seed) },
	"plane-rtt":   func(seed int64) workload { return newPlaneRTT(seed) },
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measuring time")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <mmwave-bulk|sim-churn|plane-burst|plane-rtt> --seed n --seconds n --trace 0|1\n")
		os.Exit(2)
	}
	// Allocation profiling is switched on only for the attribution run.
	runtime.MemProfileRate = 0
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s workload=%s seed=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *name, *seed)

	w := mk(*seed)
	budget := time.Duration(*seconds) * time.Second
	rep := report{Correct: true, Metrics: map[string]metric{}}
	var err error
	if *trace == 0 {
		var rs []result
		rs, err = runFor(w, nil, budget, 0)
		rep.account(rs)
		if err == nil {
			endToEnd(rep.Metrics, rs)
		}
	} else {
		err = traced(w, budget, &rep)
	}
	if err != nil {
		// A run that could not finish counts as one failed operation.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		rep.Failed = max(rep.Failed, 1)
		rep.Attempted = max(rep.Attempted, rep.Failed)
	}
	rep.Correct = rep.Failed == 0
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runFor runs units 0, 1, ... of w until budget has passed, or exactly
// n units when n > 0. Each unit starts from a collected heap.
func runFor(w workload, tr *tracer, budget time.Duration, n int) ([]result, error) {
	var out []result
	start := time.Now()
	more := func() bool {
		if n > 0 {
			return len(out) < n
		}
		return len(out) == 0 || time.Since(start) < budget
	}
	for more() {
		runtime.GC()
		g := readRuntime()
		r, err := w.unit(len(out), tr)
		r.gc = readRuntime().sub(g)
		out = append(out, r)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

func (rep *report) account(rs []result) {
	for _, r := range rs {
		rep.Attempted += r.attempted
		rep.Failed += r.failed
	}
}

// consistent checks that a replay reproduced the exact counts of the
// units it shares with the first run.
func consistent(first []result, replays ...[]result) error {
	for _, run := range replays {
		for k, r := range run {
			if r.exact != first[k].exact {
				return fmt.Errorf("unit %d not reproduced:\n  got  %+v\n  want %+v", k, r.exact, first[k].exact)
			}
		}
	}
	return nil
}

// endToEnd reports the user-visible metrics: throughput as the median
// over windows, so a stall of the shared host moves one window rather
// than the run; latency percentiles over every operation of the run.
func endToEnd(m map[string]metric, rs []result) {
	var setup, nsPerKB, pps, heap []float64
	var ops []time.Duration
	for _, r := range rs {
		setup = append(setup, r.setup.Seconds())
		heap = append(heap, float64(r.heap)/(1<<20))
		for _, w := range r.windows {
			nsPerKB = append(nsPerKB, float64(w.wall.Nanoseconds())/(float64(w.payload)/1024))
			pps = append(pps, float64(w.pkts)/w.wall.Seconds())
		}
		ops = append(ops, r.ops...)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	m["setup_s"] = metric{median(setup), "s"}
	m["host_ns_per_kb"] = metric{median(nsPerKB), "ns/KB"}
	m["pkts_per_s"] = metric{median(pps), "1/s"}
	m["op_p50_us"] = metric{us(quantileDur(ops, 0.50)), "us"}
	m["op_p90_us"] = metric{us(quantileDur(ops, 0.90)), "us"}
	m["heap_peak_mb"] = metric{median(heap), "MiB"}
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileDur is the nearest-rank q-quantile of sorted samples.
func quantileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
