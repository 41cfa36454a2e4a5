// Package perf holds the micro-benchmarks and allocation gates for
// the packet hot path: parse/remarshal cost, interception with filter
// queues of increasing depth, registry matching at increasing registry
// sizes (first-sight scan vs the negative-match cache), TTSF
// edit-map lookup at increasing edit counts, and the simulator
// substrate under the hook: scheduler At+Step, the IP checksum and a
// link's transmit→arrive cycle.
//
// The pass-through invariants — BenchmarkInterceptPassThrough and
// BenchmarkInterceptTCPFilter run at 0 allocs/op — are asserted by
// tests in this package via testing.AllocsPerRun, so a regression
// fails `go test ./...`, not just a benchmark eyeball. The substrate
// gates hold steady-state scheduling, Timer re-arming and link
// transmission at 0 allocs as well.
//
// Run `./bench.sh` (or `make bench`) for benchstat-ready output:
// every benchmark reports allocations and runs with -count=10.
package perf
