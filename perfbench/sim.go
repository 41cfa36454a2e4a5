package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// simCounters reads the system's exact counters; a unit reports the
// difference across its measured phase.
func simCounters(sys *core.System, events int64) exact {
	var e exact
	e.Events = events
	for _, l := range []*netsim.Link{sys.Wireless, sys.LTELink} {
		if l == nil {
			continue
		}
		for _, st := range []netsim.LinkStats{l.StatsAB(), l.StatsBA()} {
			e.LinkPkts += st.Packets
			e.QueueDrops += st.QueueDrops
			e.ZeroCapDrops += st.ZeroCapDrops
			if int64(st.PeakQueue) > e.PeakQueue {
				e.PeakQueue = int64(st.PeakQueue)
			}
		}
	}
	ps := sys.Plane.StatsSnapshot()
	e.Intercepted, e.RegistryMisses = ps.Intercepted, ps.RegistryMisses
	fs := sys.Plane.FlowStats()
	e.FlowOpened, e.FlowEvicted, e.FlowRetrans = fs.Opened, fs.Evicted, fs.Retrans
	for _, st := range []*tcp.Stack{sys.WiredTCP, sys.MobileTCP} {
		m := st.MIB()
		e.TCPSegs += m.InSegs
		e.OutSegs += m.OutSegs
		e.Retrans += m.RetransSegs
	}
	for _, smp := range sys.Metrics.Snapshot() {
		switch smp.Name {
		case "policy.fires":
			e.PolicyFires, _ = strconv.ParseInt(smp.Value, 10, 64)
		case "policy.reverts":
			e.PolicyReverts, _ = strconv.ParseInt(smp.Value, 10, 64)
		}
	}
	return e
}

// since returns the counters accumulated from before to e. The peak
// queue is a high-water mark, reported as is.
func (e exact) since(b exact) exact {
	e.LinkPkts -= b.LinkPkts
	e.QueueDrops -= b.QueueDrops
	e.ZeroCapDrops -= b.ZeroCapDrops
	e.Intercepted -= b.Intercepted
	e.RegistryMisses -= b.RegistryMisses
	e.FlowOpened -= b.FlowOpened
	e.FlowEvicted -= b.FlowEvicted
	e.FlowRetrans -= b.FlowRetrans
	e.TCPSegs -= b.TCPSegs
	e.OutSegs -= b.OutSegs
	e.Retrans -= b.Retrans
	e.PolicyFires -= b.PolicyFires
	e.PolicyReverts -= b.PolicyReverts
	return e
}

// drive steps the scheduler until done reports true, sampling the heap
// as it goes. It gives up when the virtual clock passes deadline or no
// event is left.
func drive(s *sim.Scheduler, deadline sim.Time, heap *heapPeak, done func() bool) (events int64, ok bool) {
	for !done() {
		if s.Now() > deadline || !s.Step() {
			return events, false
		}
		if events++; events%heapSampleEvents == 0 {
			heap.sample()
		}
	}
	return events, true
}

func seededBytes(r *rng, n int) []byte {
	b := make([]byte, n+8)
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.next())
	}
	return b[:n]
}

// mmwaveBulk is one long wired→mobile transfer on the dual-link mmWave
// system replaying the committed blockage trace, with launcher-spawned
// tcp+mwin and the link.bw shed rule. The transfer spans several trace
// cycles. The unit's seed picks the system seed (the NLoS segment's
// loss and jitter draws, initial sequence numbers) and the payload.
type mmwaveBulk struct{ seed int64 }

const (
	mmwaveBytes = 24 << 20
	mmwaveBlock = 1 << 20
	mmwaveChunk = 64 << 10 // one operation: 64 KiB delivered; also the write size
)

func newMMWaveBulk(seed int64) *mmwaveBulk { return &mmwaveBulk{seed: seed} }

// matches reports whether b is the payload at offset off.
func (w *mmwaveBulk) matches(block []byte, off int, b []byte) bool {
	for len(b) > 0 {
		i := off % mmwaveBlock
		n := min(len(b), mmwaveBlock-i)
		if !bytes.Equal(b[:n], block[i:i+n]) {
			return false
		}
		off, b = off+n, b[n:]
	}
	return true
}

func (w *mmwaveBulk) unit(k int, tr *tracer) (result, error) {
	seed := unitSeed(w.seed, k)
	r := rng(seed)
	block := seededBytes(&r, mmwaveBlock)
	t0 := time.Now()
	sys := core.NewSystem(core.Config{
		Seed:         seed,
		MMWave:       true,
		EEMInterval:  time.Second,
		ObsRetention: 1 << 16,
		Wireless:     netsim.LinkConfig{Bandwidth: 20e6, Delay: 2 * time.Millisecond, QueueLen: 128},
		LTE:          netsim.LinkConfig{Bandwidth: 12e6, Delay: 10 * time.Millisecond},
		Policy: core.PolicyConfig{Period: 100 * time.Millisecond, Rules: []string{
			"shed when link.bw:1 LT 1000000 for 1 then command mmwave:shed on 0.0.0.0 0 0.0.0.0 0 rate 1",
		}},
	})
	if err := runCommands(sys.Plane.Command, "load tcp", "load mwin", "load launcher",
		fmt.Sprintf("add launcher %v 0 %v 0 tcp mwin", core.WiredAddr, core.MobileAddr)); err != nil {
		return result{}, err
	}
	player := experiments.MMWaveTrace().Replay(sys.Sched, sys.Wireless, netsim.DirBoth, true)
	defer player.Stop()
	sys.Sched.RunFor(300 * time.Millisecond)
	setup := time.Since(t0)
	if tr != nil {
		tr.wrapSystem(sys)
	}

	ops := make([]time.Duration, 0, mmwaveBytes/mmwaveChunk)
	var chunkStart time.Time
	got, corrupt := 0, false
	var doneAt sim.Time = -1
	if _, err := sys.MobileTCP.Listen(5001, func(c *tcp.Conn) {
		c.OnData = func(b []byte) {
			var tb time.Time
			if tr != nil {
				tb = time.Now()
			}
			// Compare each delivery against the sent stream as it arrives.
			if got+len(b) > mmwaveBytes || !w.matches(block, got, b) {
				corrupt = true
			}
			if tr != nil {
				tr.bench.add(tb)
			}
			got += len(b)
			if got/mmwaveChunk > len(ops) {
				now := time.Now()
				ops = append(ops, now.Sub(chunkStart))
				chunkStart = now
			}
			if got == mmwaveBytes {
				doneAt = sys.Sched.Now()
			}
		}
		c.OnRemoteClose = func() { c.Close() }
	}); err != nil {
		return result{}, err
	}
	before := simCounters(sys, 0)
	start := sys.Sched.Now()
	tr.begin()
	tStart := time.Now()
	chunkStart = tStart
	client, err := sys.WiredTCP.ConnectFrom(7000, core.MobileAddr, 5001)
	if err != nil {
		return result{}, err
	}
	// The sender writes as its buffer drains, one chunk at a time.
	written := 0
	done := func() bool {
		if written < mmwaveBytes && client.BufferedOut() < 4*mmwaveChunk {
			var tw time.Time
			if tr != nil {
				tw = time.Now()
			}
			i := written % mmwaveBlock
			client.Write(block[i : i+mmwaveChunk])
			written += mmwaveChunk
			if written == mmwaveBytes {
				client.Close()
			}
			if tr != nil {
				tr.tcp.ns += int64(time.Since(tw))
			}
		}
		return doneAt >= 0 || corrupt
	}
	heap := newHeapPeak()
	events, ok := drive(sys.Sched, start.Add(120*time.Second), heap, done)
	wall := time.Since(tStart)
	tr.end()

	res := result{setup: setup, wall: wall, payload: int64(got), ops: ops, attempted: 1, heap: heap.max}
	res.exact = simCounters(sys, events).since(before)
	res.pkts = res.exact.Intercepted
	res.windows = []window{{wall, res.payload, res.pkts}}
	res.exact.Ops, res.exact.Payload = int64(len(ops)), int64(got)
	if !ok || corrupt || got != mmwaveBytes {
		res.failed = 1
		return res, nil
	}
	fct := doneAt.Sub(start)
	res.exact.Goodput = float64(mmwaveBytes) * 8 / fct.Seconds() / 1e6
	res.exact.FctP50 = float64(fct) / 1e6
	res.exact.FctP99 = res.exact.FctP50
	return res, nil
}

// simChurn is a closed loop of mobile clients on a lossy 20 Mb/s
// wireless link. Each client opens one connection per object, sends
// the object's 4-byte id and reads the object back from the wired
// host; the launcher gives every server→mobile stream tcp+ttsf. The
// unit's seed picks the system seed and the object sizes and contents.
type simChurn struct{ seed int64 }

// churnObjects are one unit's objects: object i is
// data[offs[i]:offs[i]+sizes[i]].
type churnObjects struct {
	sizes, offs []int
	data        []byte
}

const (
	churnClients  = 8
	churnFlows    = 1024
	churnMaxSize  = 64 << 10
	churnDeadline = 60 * time.Second // virtual; per flow
	churnPort     = 80
)

func newSimChurn(seed int64) *simChurn { return &simChurn{seed: seed} }

func newChurnObjects(seed int64) *churnObjects {
	r := rng(seed)
	o := &churnObjects{sizes: make([]int, churnFlows), offs: make([]int, churnFlows)}
	for i := range o.sizes {
		o.sizes[i] = 1<<10 + r.intn(churnMaxSize-1<<10+1)
		o.offs[i] = r.intn(churnMaxSize)
	}
	o.data = seededBytes(&r, 2*churnMaxSize)
	return o
}

func (o *churnObjects) object(i int) []byte { return o.data[o.offs[i] : o.offs[i]+o.sizes[i]] }

func (w *simChurn) unit(k int, tr *tracer) (result, error) {
	seed := unitSeed(w.seed, k)
	objs := newChurnObjects(seed)
	t0 := time.Now()
	sys := core.NewSystem(core.Config{
		Seed:     seed,
		Wireless: netsim.LinkConfig{Bandwidth: 20e6, Delay: 10 * time.Millisecond, Loss: netsim.Bernoulli{P: 0.01}},
	})
	if err := runCommands(sys.Plane.Command, "load tcp", "load ttsf", "load launcher",
		fmt.Sprintf("add launcher %v 0 %v 0 tcp ttsf", core.WiredAddr, core.MobileAddr)); err != nil {
		return result{}, err
	}
	sys.Sched.RunFor(100 * time.Millisecond)
	setup := time.Since(t0)
	if tr != nil {
		tr.wrapSystem(sys)
	}

	// Server: read a 4-byte object id, send the object, close.
	if _, err := sys.WiredTCP.Listen(churnPort, func(c *tcp.Conn) {
		var req []byte
		c.OnData = func(b []byte) {
			req = append(req, b...)
			if len(req) == 4 {
				c.Write(objs.object(int(binary.BigEndian.Uint32(req))))
				c.Close()
			}
		}
	}); err != nil {
		return result{}, err
	}

	hostFCT := make([]time.Duration, 0, churnFlows)
	virtFCT := make([]time.Duration, 0, churnFlows)
	var delivered int64
	next, finished, failed := 0, 0, 0
	var startErr error
	var open func()
	open = func() {
		i := next
		next++
		want := objs.object(i)
		c, err := sys.MobileTCP.Connect(core.WiredAddr, churnPort)
		if err != nil {
			startErr = err
			return
		}
		vStart, hStart := sys.Sched.Now(), time.Now()
		got, over := 0, false
		end := func(ok bool) {
			over = true
			finished++
			if !ok {
				failed++
			}
			if next < churnFlows {
				open()
			}
		}
		var req [4]byte
		binary.BigEndian.PutUint32(req[:], uint32(i))
		c.OnEstablished = func() { c.Write(req[:]) }
		c.OnData = func(b []byte) {
			if over {
				return
			}
			var tb time.Time
			if tr != nil {
				tb = time.Now()
			}
			ok := got+len(b) <= len(want) && bytes.Equal(b, want[got:got+len(b)])
			if tr != nil {
				tr.bench.add(tb)
			}
			got += len(b)
			switch {
			case !ok:
				c.Abort()
				end(false)
			case got == len(want):
				fct := sys.Sched.Now().Sub(vStart)
				hostFCT = append(hostFCT, time.Since(hStart))
				virtFCT = append(virtFCT, fct)
				delivered += int64(got)
				c.Close()
				end(fct <= churnDeadline)
			}
		}
		// The server closing before the whole object arrived fails the flow.
		c.OnRemoteClose = func() {
			if !over {
				c.Close()
				end(false)
			}
		}
	}

	before := simCounters(sys, 0)
	start := sys.Sched.Now()
	tr.begin()
	tStart := time.Now()
	for k := 0; k < churnClients; k++ {
		open()
	}
	// A flow that stalls past its deadline stalls its client; give the
	// whole loop that much slack beyond a clean run.
	heap := newHeapPeak()
	events, ok := drive(sys.Sched, start.Add(churnFlows*churnDeadline/churnClients), heap,
		func() bool { return finished == churnFlows || startErr != nil })
	wall := time.Since(tStart)
	tr.end()
	end := sys.Sched.Now()
	if startErr != nil {
		return result{}, startErr
	}

	r := result{setup: setup, wall: wall, payload: delivered, ops: hostFCT, attempted: churnFlows,
		heap: heap.max}
	r.exact = simCounters(sys, events).since(before)
	r.pkts = r.exact.Intercepted
	r.windows = []window{{wall, r.payload, r.pkts}}
	r.exact.Ops, r.exact.Payload = int64(len(virtFCT)), delivered
	r.failed = int64(failed + churnFlows - finished)
	if !ok && r.failed == 0 {
		r.failed = 1
	}
	sort.Slice(virtFCT, func(i, j int) bool { return virtFCT[i] < virtFCT[j] })
	r.exact.Goodput = float64(delivered) * 8 / end.Sub(start).Seconds() / 1e6
	r.exact.FctP50 = float64(quantileDur(virtFCT, 0.50)) / 1e6
	r.exact.FctP99 = float64(quantileDur(virtFCT, 0.99)) / 1e6
	return r, nil
}
