package perf

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// --- simulator substrate -----------------------------------------------------
//
// The layers under the proxy hook: the event scheduler, the IP
// checksum and a link's transmit→arrive cycle. Every simulated packet
// pays for them several times over.

// schedDepth is the steady queue depth of the scheduler benchmarks,
// about what a bulk mmWave transfer keeps pending.
const schedDepth = 1024

// delays is a fixed pseudo-random stream of event delays up to ~1ms.
type delays uint64

func (d *delays) next() sim.Duration {
	*d = *d*6364136223846793005 + 1442695040888963407
	return sim.Duration(*d >> 44)
}

// steadyScheduler returns a scheduler holding schedDepth pending
// events of fn.
func steadyScheduler(d *delays, fn func()) *sim.Scheduler {
	s := sim.NewScheduler(1)
	for i := 0; i < schedDepth; i++ {
		s.After(d.next(), fn)
	}
	return s
}

// BenchmarkSchedulerAtStep is one At followed by one Step at a steady
// queue depth of schedDepth.
func BenchmarkSchedulerAtStep(b *testing.B) {
	d := delays(1)
	fn := func() {}
	s := steadyScheduler(&d, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(d.next(), fn)
		s.Step()
	}
}

// BenchmarkChecksum is the RFC 1071 sum over a pure ACK's IP+TCP
// headers, a minimum-MTU datagram and a full Ethernet-MTU segment.
func BenchmarkChecksum(b *testing.B) {
	for _, n := range []int{40, 576, 1480} {
		buf := pattern(n)
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ip.Checksum(buf)
			}
		})
	}
}

// linkPair is two nodes on a lossless link; b counts what it receives.
type linkPair struct {
	sched    *sim.Scheduler
	a, b     *netsim.Node
	received int
}

func newLinkPair() *linkPair {
	p := &linkPair{sched: sim.NewScheduler(1)}
	n := netsim.New(p.sched)
	p.a, p.b = n.AddNode("a"), n.AddNode("b")
	n.Connect(p.a, ip.AddrFrom4(10, 0, 0, 1), p.b, ip.AddrFrom4(10, 0, 0, 2),
		netsim.LinkConfig{Bandwidth: 1e9, Delay: time.Millisecond})
	p.b.RegisterProto(ip.ProtoUDP, func(ip.Header, []byte, []byte, *netsim.Iface) { p.received++ })
	return p
}

// BenchmarkLinkTransmit is SendIPFrom to delivery on a lossless link:
// datagram build, serialization, arrival, checksum verification and
// local delivery. The one allocation per packet is the datagram, which
// the link shares with the receiver rather than copying.
func BenchmarkLinkTransmit(b *testing.B) {
	p := newLinkPair()
	payload := pattern(1000)
	src, dst := p.a.Addr(), p.b.Addr()
	b.SetBytes(int64(ip.HeaderLen + len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.a.SendIPFrom(src, dst, ip.ProtoUDP, payload)
		p.sched.Run()
	}
	b.StopTimer()
	if p.received != b.N {
		b.Fatalf("delivered %d of %d", p.received, b.N)
	}
}

// TestSchedulerAtStepZeroAlloc gates steady-state scheduling: once the
// slot table and heap have grown to the queue depth, At+Step reuses
// them and allocates nothing.
func TestSchedulerAtStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates run without the race detector")
	}
	d := delays(1)
	fn := func() {}
	s := steadyScheduler(&d, fn)
	if allocs := testing.AllocsPerRun(1000, func() {
		s.After(d.next(), fn)
		s.Step()
	}); allocs != 0 {
		t.Fatalf("At+Step allocates %.1f times, want 0", allocs)
	}
	if s.Pending() != schedDepth {
		t.Fatalf("queue depth drifted to %d, want %d", s.Pending(), schedDepth)
	}
}

// TestTimerRearmZeroAlloc gates the retransmission-timer pattern: stop
// the pending timer and arm a new one as virtual time advances. The
// handle is a value and the callback is bound once, so this allocates
// nothing.
func TestTimerRearmZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates run without the race detector")
	}
	s := sim.NewScheduler(1)
	fn := func() { t.Fatal("a stopped timer fired") }
	tm := s.After(2*time.Millisecond, fn)
	rearm := func() {
		if !tm.Stop() {
			t.Fatal("pending timer did not stop")
		}
		tm = s.After(2*time.Millisecond, fn)
		s.RunFor(time.Millisecond)
	}
	rearm() // grow the heap past the one stale entry in flight
	if allocs := testing.AllocsPerRun(1000, rearm); allocs != 0 {
		t.Fatalf("Timer stop+re-arm allocates %.1f times, want 0", allocs)
	}
}

// TestLinkTransmitZeroAlloc gates the link itself: routing a prebuilt
// datagram, its transmit, dequeue and arrive events and the delivery
// at the far end allocate nothing once the in-flight records exist.
func TestLinkTransmitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates run without the race detector")
	}
	p := newLinkPair()
	h := ip.Header{TTL: 64, Protocol: ip.ProtoUDP, Src: p.a.Addr(), Dst: p.b.Addr()}
	raw, err := h.Marshal(pattern(1000))
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		p.a.InjectPacket(raw)
		p.sched.Run()
	}); allocs != 0 {
		t.Fatalf("transmit→arrive allocates %.1f times per packet, want 0", allocs)
	}
	if p.received != 1001 {
		t.Fatalf("delivered %d of 1001", p.received)
	}
}
