package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/filter"
	"repro/internal/filters"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// The plane workloads' proxy: one shard, the wild-card launcher giving
// every wired→mobile stream the tcp bookkeeping filter. planeRing
// bounds the ring at planeRing*64 packets, which poolSize covers.
const planeRing = 64

// planeWindow is the number of bursts in one throughput window.
const planeWindow = 512

var planeCommands = []string{
	"load tcp",
	"load launcher",
	fmt.Sprintf("add launcher %v 0 %v 0 tcp", core.WiredAddr, core.MobileAddr),
}

// planeWorkload drives the concurrent data plane with no simulator.
// Closed-loop (plane-rtt) sends one burst, flushes and waits for the
// sink to return it; otherwise (plane-burst) the producer streams
// bursts back to back and the ring's backpressure paces it.
type planeWorkload struct {
	seed      int64
	burst     int  // packets per DispatchBurst
	rounds    int  // bursts per unit
	closedRTT bool // wait for each burst before sending the next
	s         *stream
}

func newPlaneBurst(seed int64) *planeWorkload {
	return &planeWorkload{seed: seed, burst: 32, rounds: 1 << 14, s: newStream()}
}

func newPlaneRTT(seed int64) *planeWorkload {
	return &planeWorkload{seed: seed, burst: 16, rounds: 1 << 13, closedRTT: true, s: newStream()}
}

// runCommands sends each line to a proxy control surface.
func runCommands(command func(string) string, lines ...string) error {
	for _, c := range lines {
		if out := command(c); strings.HasPrefix(out, "error") {
			return fmt.Errorf("proxy command %q: %s", c, out)
		}
	}
	return nil
}

// lostAfter is how long the benchmark waits for a packet the plane
// should already have returned before it counts the packet as lost.
const lostAfter = 2 * time.Second

// waitFor spins until done reports true or lostAfter has passed.
func waitFor(done func() bool) bool {
	deadline := time.Now().Add(lostAfter)
	for !done() {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

func (w *planeWorkload) unit(k int, tr *tracer) (result, error) {
	seed := unitSeed(w.seed, k)
	s := w.s
	s.reset(seed)
	syns := s.syns()
	burst := make([][]byte, 0, w.burst)
	lat := make([]time.Duration, w.rounds)
	// sent[b] is when burst b was dispatched; a burst's slot is reused
	// only after the sink has timed it (see stream.nextPacket).
	sent := make([]time.Time, poolSize/w.burst)
	var data atomic.Bool
	var synsOut atomic.Int64
	var timed uint64 // bursts the sink has timed
	sink := func(_ int, out [][]byte) {
		if !data.Load() {
			synsOut.Add(int64(len(out)))
			return
		}
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		e := s.check(out)
		if !w.closedRTT {
			now := time.Now()
			for ; timed < e/uint64(w.burst); timed++ {
				lat[timed] = now.Sub(sent[timed%uint64(len(sent))])
			}
		}
		s.emitted.Store(e)
		if tr != nil {
			tr.bench.add(t0)
		}
	}

	t0 := time.Now()
	cat := filter.NewCatalog()
	filters.RegisterAll(cat)
	pl := dataplane.NewConcurrent(dataplane.ConcurrentConfig{
		Shards: 1, Catalog: cat, Seed: seed, RingSize: planeRing, Sink: sink,
	})
	defer pl.Close()
	if err := runCommands(pl.Command, planeCommands...); err != nil {
		return result{}, err
	}
	pl.DispatchBurst(syns)
	pl.Drain()
	setup := time.Since(t0)
	if n := synsOut.Load(); n != int64(len(syns)) {
		return result{}, fmt.Errorf("plane passed %d of %d SYNs", n, len(syns))
	}
	before := pl.StatsSnapshot()
	data.Store(true)

	tr.begin()
	t0 = time.Now()
	wins := make([]window, 0, w.rounds/planeWindow)
	mark, markPay := t0, int64(0)
	heap := newHeapPeak()
	for b := 0; b < w.rounds; b++ {
		if b > 0 && b%planeWindow == 0 {
			heap.sample()
			now := time.Now()
			wins = append(wins, window{now.Sub(mark), s.payload - markPay, int64(planeWindow * w.burst)})
			mark, markPay = now, s.payload
		}
		var tg time.Time
		if tr != nil {
			tg = time.Now()
		}
		burst = s.fill(burst)
		start := time.Now()
		if tr != nil {
			tr.gen.ns += int64(start.Sub(tg))
		}
		if !w.closedRTT {
			sent[b%len(sent)] = start
		}
		pl.DispatchBurst(burst)
		if w.closedRTT {
			pl.Flush()
		}
		if tr != nil {
			tr.dispatch.add(start)
		}
		if w.closedRTT {
			if !waitFor(func() bool { return s.emitted.Load() >= s.sent }) {
				return result{}, fmt.Errorf("burst %d: %d of %d packets returned", b, s.emitted.Load(), s.sent)
			}
			lat[b] = time.Since(start)
		}
	}
	pl.Drain()
	end := time.Now()
	wall := end.Sub(t0)
	tr.end()
	wins = append(wins, window{end.Sub(mark), s.payload - markPay, int64(s.sent) - int64(len(wins)*planeWindow*w.burst)})

	pkts := int64(s.sent)
	after := pl.StatsSnapshot()
	flows := pl.FlowStats()
	r := result{
		setup:     setup,
		wall:      wall,
		pkts:      pkts,
		payload:   s.payload,
		ops:       lat,
		windows:   wins,
		heap:      heap.max,
		attempted: pkts,
		plane: planeCounters{
			bursts:  int64(w.rounds),
			batches: pl.Batches(),
			wakeups: pl.Wakeups(),
			stalls:  pl.Stalls(),
		},
		exact: exact{
			Ops:            int64(w.rounds),
			Payload:        s.payload,
			Intercepted:    after.Intercepted - before.Intercepted,
			RegistryMisses: after.RegistryMisses - before.RegistryMisses,
			FlowOpened:     flows.Opened,
			FlowEvicted:    flows.Evicted,
			FlowRetrans:    flows.Retrans,
		},
	}
	// Every packet back exactly once, unmodified; no sequence number
	// replayed (the flow log would count it as a retransmit).
	missing := pkts - int64(s.emitted.Load())
	if missing < 0 {
		missing = -missing
	}
	r.failed = s.bad.Load() + missing + int64(s.verifyPayload())
	if r.failed > pkts {
		r.failed = pkts
	}
	if r.exact.Intercepted != pkts || r.exact.FlowRetrans != 0 || r.exact.FlowOpened != streamFlows {
		return r, fmt.Errorf("plane intercepted %d of %d packets, opened %d flows, counted %d retransmits",
			r.exact.Intercepted, pkts, r.exact.FlowOpened, r.exact.FlowRetrans)
	}
	return r, nil
}

// inline runs unit 0's stream through an inline plane on a bare node,
// timing each burst's interception on the caller's goroutine: the
// proxy's own cost, with no handoff between goroutines.
func (w *planeWorkload) inline() (ns, pkts int64, err error) {
	seed := unitSeed(w.seed, 0)
	s := w.s
	s.reset(seed)
	syns := s.syns()
	node := netsim.New(sim.NewScheduler(seed)).AddNode("proxy")
	cat := filter.NewCatalog()
	filters.RegisterAll(cat)
	pl := dataplane.NewInline(node, cat, 1)
	if err := runCommands(pl.Command, planeCommands...); err != nil {
		return 0, 0, err
	}
	for _, raw := range syns {
		pl.Hook(raw, nil)
	}
	burst := make([][]byte, 0, w.burst)
	var out [][]byte
	for b := 0; b < w.rounds; b++ {
		burst = s.fill(burst)
		out = out[:0]
		t0 := time.Now()
		for _, raw := range burst {
			out = append(out, pl.Hook(raw, nil)...)
		}
		ns += int64(time.Since(t0))
		s.emitted.Store(s.check(out))
	}
	if bad := s.bad.Load() + int64(s.verifyPayload()); bad != 0 || s.emitted.Load() != s.sent {
		return 0, 0, fmt.Errorf("inline plane: %d bad packets, %d of %d returned", bad, s.emitted.Load(), s.sent)
	}
	return ns, int64(s.sent), nil
}
