package main

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/tcp"
)

// The seed self-test runs unit 0 of each workload on seedA twice, once
// traced, and on the held-out seedB once. seedA must reproduce its exact
// counts and virtual-time results; seedB must change them, which shows
// the seed reaches the workload's inputs. Unit 1 of seedA must differ
// from unit 0 too: the units of a run draw different inputs.
const (
	seedA = 1
	seedB = 2
)

func runUnit(t *testing.T, name string, seed int64, k int, tr *tracer) exact {
	t.Helper()
	r, err := workloads[name](seed).unit(k, tr)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if r.failed != 0 || r.attempted == 0 {
		t.Fatalf("%s seed %d: %d of %d operations failed", name, seed, r.failed, r.attempted)
	}
	return r.exact
}

func TestSeedSelfTest(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			a := runUnit(t, name, seedA, 0, nil)
			if again := runUnit(t, name, seedA, 0, &tracer{}); again != a {
				t.Errorf("seed %d not reproduced by the traced run:\n got %+v\nwant %+v", seedA, again, a)
			}
			if b := runUnit(t, name, seedB, 0, nil); b == a {
				t.Errorf("seeds %d and %d gave identical outputs %+v", seedA, seedB, a)
			}
			if u1 := runUnit(t, name, seedA, 1, nil); u1 == a {
				t.Errorf("units 0 and 1 of seed %d gave identical outputs %+v", seedA, a)
			}
			t.Logf("seed %d: %+v", seedA, a)
		})
	}
}

// TestStreamMatchesCodecs checks the plane generator's incremental
// checksums against the repository's own IP and TCP codecs.
func TestStreamMatchesCodecs(t *testing.T) {
	s := newStream()
	s.reset(seedA)
	seq := map[uint16]uint32{}
	for i, raw := range s.syns() {
		h, seg, err := ip.Unmarshal(raw)
		if err != nil || !ip.VerifyChecksum(raw) || !tcp.VerifyChecksum(h.Src, h.Dst, seg) {
			t.Fatalf("syn %d does not verify: %v", i, err)
		}
		sg, _ := tcp.Unmarshal(seg)
		seq[sg.SrcPort] = sg.Seq + 1
	}
	for i := 0; i < 4*poolSize; i++ {
		raw := s.nextPacket()
		s.emitted.Store(s.sent)
		h, seg, err := ip.Unmarshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		sg, err := tcp.Unmarshal(seg)
		if err != nil {
			t.Fatal(err)
		}
		// Re-encode with the codecs and compare byte for byte.
		want := tcp.Segment{SrcPort: sg.SrcPort, DstPort: dstPort, Seq: seq[sg.SrcPort], Ack: 1,
			Flags: tcp.FlagACK, Window: 65535, Payload: pattern[:len(raw)-40]}
		hw := ip.Header{TTL: 64, Protocol: ip.ProtoTCP, Src: core.WiredAddr, Dst: core.MobileAddr}
		wraw, err := hw.Marshal(want.Marshal(core.WiredAddr, core.MobileAddr))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, wraw) || h.Src != core.WiredAddr {
			t.Fatalf("packet %d differs from the codecs' encoding", i)
		}
		seq[sg.SrcPort] += uint32(len(sg.Payload))
	}
	if s.verifyPayload() != 0 {
		t.Fatal("pool payload changed")
	}
}

// TestTracedReconciles runs the whole traced report on a short budget:
// every per-layer metric is present and the layer shares sum to one.
func TestTracedReconciles(t *testing.T) {
	for _, name := range []string{"sim-churn", "plane-rtt"} {
		rep := report{Correct: true, Metrics: map[string]metric{}}
		if err := traced(workloads[name](seedA), 100*time.Millisecond, &rep); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Failed != 0 {
			t.Fatalf("%s: %d failed", name, rep.Failed)
		}
		sum := 0.0
		for _, k := range []string{"proxy.share", "tcp.share", "bench.share", "residual.share"} {
			sum += rep.Metrics[k].Value
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: layer shares sum to %v", name, sum)
		}
		if rep.Metrics["allocs_per_pkt"].Value <= 0 {
			t.Errorf("%s: no allocations attributed", name)
		}
	}
}
