package core_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eem"
	"repro/internal/filter"
	"repro/internal/filters"
	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/tcp"
)

func TestSystemQuickstartTransfer(t *testing.T) {
	sys := core.NewSystem(core.Config{})
	sys.MustCommand("load tcp")
	sys.MustCommand("load launcher")
	sys.MustCommand("add launcher 11.11.10.99 0 11.11.10.10 0 tcp")

	payload := bytes.Repeat([]byte("comma"), 10_000)
	res, err := sys.Transfer(payload, 7, 5001, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("transfer incomplete: %d of %d", len(res.Received), res.Sent)
	}
	if !bytes.Equal(res.Received, payload) {
		t.Fatal("payload corrupted")
	}
	if res.Elapsed <= 0 {
		t.Fatalf("elapsed = %v", res.Elapsed)
	}
}

func TestSystemDoubleProxyCompression(t *testing.T) {
	sys := core.NewSystem(core.Config{
		DoubleProxy: true,
		Wireless:    netsim.LinkConfig{Bandwidth: 1e6, Delay: 20 * time.Millisecond},
	})
	for _, c := range []string{"load tcp", "load ttsf", "load comp", "load launcher",
		"add launcher 11.11.10.99 0 11.11.10.10 0 tcp ttsf comp"} {
		sys.MustCommand(c)
	}
	for _, c := range []string{"load tcp", "load ttsf", "load decomp", "load launcher",
		"add launcher 11.11.10.99 0 11.11.10.10 0 tcp ttsf decomp"} {
		sys.MustCommandB(c)
	}
	payload := bytes.Repeat([]byte("all work and no play makes jack a dull boy. "), 2000)
	res, err := sys.Transfer(payload, 7, 5001, 300*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || !bytes.Equal(res.Received, payload) {
		t.Fatalf("compressed transfer failed: %d of %d", len(res.Received), res.Sent)
	}
	if carried := sys.Wireless.StatsAB().Bytes; carried > int64(len(payload))/2 {
		t.Fatalf("wireless carried %d bytes for %d payload", carried, len(payload))
	}
}

func TestSystemEEMReachable(t *testing.T) {
	sys := core.NewSystem(core.Config{WithUser: true, EEMInterval: time.Second})
	client := eem.NewComma(eem.SimDialer(sys.UserTCP))
	var got eem.Value
	client.GetValueOnce(eem.ID{Var: "sysName", Server: "11.11.9.1"}, func(v eem.Value, err error) {
		if err != nil {
			t.Errorf("poll: %v", err)
		}
		got = v
	})
	sys.Sched.RunFor(2 * time.Second)
	if got.S != "proxy" {
		t.Fatalf("sysName = %q", got.S)
	}
}

func TestMustCommandPanicsOnError(t *testing.T) {
	sys := core.NewSystem(core.Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("MustCommand did not panic on error")
		}
	}()
	sys.MustCommand("load nonexistent-filter")
}

func TestReportThroughControlPort(t *testing.T) {
	// The SP control port on the proxy host answers over the simulated
	// network, reproducing the thesis's telnet interface end to end.
	sys := core.NewSystem(core.Config{})
	sys.MustCommand("load tcp")
	conn, err := sys.WiredTCP.Connect(core.ProxyCtrlAddr, 12000)
	if err != nil {
		t.Fatal(err)
	}
	var resp strings.Builder
	conn.OnData = func(b []byte) { resp.Write(b) }
	conn.OnEstablished = func() { conn.Write([]byte("report\n")) }
	sys.Sched.RunFor(2 * time.Second)
	if !strings.Contains(resp.String(), "tcp") {
		t.Fatalf("control response: %q", resp.String())
	}
}

func mkCoreSeg(t testing.TB, srcPort uint16, seq uint32) []byte {
	t.Helper()
	seg := tcp.Segment{SrcPort: srcPort, DstPort: 5001, Seq: seq, Ack: 1,
		Flags: tcp.FlagACK, Window: 65535, Payload: []byte("concurrent plane probe")}
	h := ip.Header{TTL: 64, Protocol: ip.ProtoTCP, Src: core.WiredAddr, Dst: core.MobileAddr}
	raw, err := h.Marshal(seg.Marshal(core.WiredAddr, core.MobileAddr))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestNewConcurrentPlane(t *testing.T) {
	// The standalone concurrent assembly honors the Shards/Batch knobs,
	// carries the full filter catalog, and delivers traffic through the
	// batched pipeline end to end.
	var mu sync.Mutex
	got := 0
	pl := core.NewConcurrentPlane(core.Config{Shards: 2, Batch: 8}, func(_ int, out [][]byte) {
		mu.Lock()
		got += len(out)
		mu.Unlock()
	})
	defer pl.Close()
	if pl.N() != 2 {
		t.Fatalf("shards = %d, want 2", pl.N())
	}
	if out := pl.Command("load tcp"); out != "tcp\n" {
		t.Fatalf("load output %q", out)
	}
	for i := 0; i < 100; i++ {
		pl.Dispatch(mkCoreSeg(t, uint16(4000+i%8), uint32(1+i)))
	}
	pl.Drain()
	mu.Lock()
	defer mu.Unlock()
	if got != 100 {
		t.Fatalf("sink received %d packets, want 100", got)
	}
}

// openStream starts a bulk send wired:srcPort → mobile:dstPort and
// leaves the connection open, so the proxies keep its filter queues
// live until the test tears them down.
func openStream(t *testing.T, sys *core.System, srcPort, dstPort uint16, n int) {
	t.Helper()
	if _, err := sys.MobileTCP.Listen(dstPort, func(c *tcp.Conn) {}); err != nil {
		t.Fatal(err)
	}
	client, err := sys.WiredTCP.ConnectFrom(srcPort, core.MobileAddr, dstPort)
	if err != nil {
		t.Fatal(err)
	}
	client.OnEstablished = func() { client.Write(bytes.Repeat([]byte("comma"), n/5)) }
}

// TestFilterStatsPerProxy: two proxies servicing the same stream each
// own their TTSF instance, and tearing the stream down on one leaves
// the other's stats readable.
func TestFilterStatsPerProxy(t *testing.T) {
	sys := core.NewSystem(core.Config{
		Seed: 3, DoubleProxy: true,
		Wireless: netsim.LinkConfig{Bandwidth: 2e6, Delay: 10 * time.Millisecond},
	})
	const keyStr = "11.11.10.99 7 11.11.10.10 5001"
	k := filter.Key{SrcIP: core.WiredAddr, SrcPort: 7, DstIP: core.MobileAddr, DstPort: 5001}
	// Only A excises bytes, so only A's TTSF records edits.
	for _, c := range []string{"load tcp", "load ttsf", "load rdrop",
		"add tcp " + keyStr, "add ttsf " + keyStr, "add rdrop " + keyStr + " 20"} {
		sys.MustCommand(c)
	}
	for _, c := range []string{"load tcp", "load ttsf", "add tcp " + keyStr, "add ttsf " + keyStr} {
		sys.MustCommandB(c)
	}
	openStream(t, sys, 7, 5001, 100_000)
	sys.Sched.RunFor(3 * time.Second)

	stA, okA := sys.Plane.FilterStats(k, "ttsf").(filters.TTSFStats)
	stB, okB := sys.PlaneB.FilterStats(k, "ttsf").(filters.TTSFStats)
	if !okA || !okB || stA.BytesIn == 0 || stB.BytesIn == 0 {
		t.Fatalf("ttsf stats A=%+v (ok=%v) B=%+v (ok=%v)", stA, okA, stB, okB)
	}
	if stA.Edits == 0 || stB.Edits != 0 {
		t.Fatalf("instances not per proxy: A edits=%d (want >0), B edits=%d (want 0)", stA.Edits, stB.Edits)
	}

	sys.Proxy.RemoveStream(k)
	if got := sys.Plane.FilterStats(k, "ttsf"); got != nil {
		t.Fatalf("A still reports stats after teardown: %+v", got)
	}
	if st, ok := sys.PlaneB.FilterStats(k, "ttsf").(filters.TTSFStats); !ok || st.BytesIn < stB.BytesIn {
		t.Fatalf("B's stats lost with A's teardown: %+v ok=%v (had %+v)", st, ok, stB)
	}
}

// TestFilterStatsFollowMigration: after an in-process A→B migration the
// stream's TTSF counters are read from B, carry the pre-freeze bytes,
// and A reports none.
func TestFilterStatsFollowMigration(t *testing.T) {
	sys := core.NewSystem(core.Config{
		Seed: 5, DoubleProxy: true, Migration: true,
		Wireless: netsim.LinkConfig{Bandwidth: 2e6, Delay: 10 * time.Millisecond},
	})
	const keyStr = "11.11.10.99 7000 11.11.10.10 8000"
	k := filter.Key{SrcIP: core.WiredAddr, SrcPort: 7000, DstIP: core.MobileAddr, DstPort: 8000}
	for _, c := range []string{"load tcp", "load ttsf", "add tcp " + keyStr, "add ttsf " + keyStr} {
		sys.MustCommand(c)
	}
	openStream(t, sys, 7000, 8000, 200_000)
	var pre int64
	var cmdOut string
	sys.Sched.After(300*time.Millisecond, func() {
		if st, ok := sys.Plane.FilterStats(k, "ttsf").(filters.TTSFStats); ok {
			pre = st.BytesIn
		}
		cmdOut = sys.Plane.Command("migrate " + keyStr + " 11.11.11.2")
	})
	sys.Sched.RunFor(5 * time.Second)

	if !strings.HasPrefix(cmdOut, "migrating") || pre == 0 {
		t.Fatalf("migrate answered %q with %d bytes seen before the freeze", cmdOut, pre)
	}
	if got := sys.Plane.FilterStats(k, "ttsf"); got != nil {
		t.Fatalf("source still reports ttsf stats after migration: %+v", got)
	}
	st, ok := sys.PlaneB.FilterStats(k, "ttsf").(filters.TTSFStats)
	if !ok || st.BytesIn < pre {
		t.Fatalf("destination ttsf stats %+v ok=%v, want BytesIn >= %d", st, ok, pre)
	}
}
