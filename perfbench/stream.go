package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/tcp"
)

// Shape of the plane workloads' packet stream.
const (
	streamFlows = 1024
	// poolSize is the number of datagram buffers the generator cycles
	// through: more than the plane can hold (planeRing batches in the
	// ring, one filling, one draining), so the generator never has to
	// wait for a buffer, and never rewrites one the plane still holds.
	poolSize = 8192
	bufCap   = 1500
	dstPort  = 5001
)

// sizeClasses are the IP datagram lengths of the stream: a header-only
// ACK, a default-MSS segment and a full Ethernet frame, drawn 7:4:1.
var sizeClasses = [...]int{40, 576, 1500}

// pattern is the payload every data segment carries, as a prefix.
var pattern = func() []byte {
	b := make([]byte, bufCap-40)
	for i := range b {
		b[i] = byte(i*31 + 7)
	}
	return b
}()

// rng is splitmix64: seeded, cheap and identical on every platform.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int((r.next() >> 33) % uint64(n)) }

type flowState struct {
	seq    uint32
	tmpl   [40]byte // IP+TCP header with zero length, seq and checksums
	ipPart uint32   // ones'-complement sum of the constant IP header words
	tcPart uint32   // ... and of the constant pseudo-header and TCP words
}

// stream is the seeded, in-order TCP packet stream the plane workloads
// feed through the proxy: streamFlows wired→mobile flows, each opened
// by a SYN, then a 7:4:1 mix of 40/576/1500-byte segments whose
// sequence numbers only advance, so no segment is ever a retransmit.
//
// Datagrams live in a ring of poolSize buffers whose payload is written
// once; only the 40 header bytes are rewritten for each packet. Packet
// i uses buffer i%poolSize, and the sink, which sees packets in
// dispatch order, checks each against what the generator recorded.
type stream struct {
	r       rng
	flows   []flowState
	pool    [][]byte
	lens    []int32
	want    []uint64 // seq<<32 | tcp checksum<<16 | ip checksum, per buffer
	paySum  [len(sizeClasses)]uint32
	sent    uint64 // packets generated
	payload int64  // TCP payload bytes generated

	// emitted counts packets the sink has checked; written by the sink,
	// read by the generator before it reuses a buffer.
	emitted atomic.Uint64
	bad     atomic.Int64 // packets missing, duplicated or modified
}

func newStream() *stream {
	s := &stream{
		flows: make([]flowState, streamFlows),
		pool:  make([][]byte, poolSize),
		lens:  make([]int32, poolSize),
		want:  make([]uint64, poolSize),
	}
	for i := range s.pool {
		b := make([]byte, bufCap)
		copy(b[40:], pattern)
		s.pool[i] = b
	}
	for c, n := range sizeClasses {
		s.paySum[c] = sum16(0, pattern[:n-40])
	}
	for i := range s.flows {
		f := &s.flows[i]
		seg := tcp.Segment{SrcPort: uint16(1024 + i), DstPort: dstPort, Seq: 0, Ack: 1,
			Flags: tcp.FlagACK, Window: 65535}
		h := ip.Header{TTL: 64, Protocol: ip.ProtoTCP, Src: core.WiredAddr, Dst: core.MobileAddr}
		raw, err := h.Marshal(seg.Marshal(core.WiredAddr, core.MobileAddr))
		if err != nil || len(raw) != 40 {
			panic(fmt.Sprintf("perfbench: flow template: %v (len %d)", err, len(raw)))
		}
		copy(f.tmpl[:], raw)
		binary.BigEndian.PutUint16(f.tmpl[2:], 0)  // total length
		binary.BigEndian.PutUint16(f.tmpl[10:], 0) // ip checksum
		binary.BigEndian.PutUint32(f.tmpl[24:], 0) // seq
		binary.BigEndian.PutUint16(f.tmpl[36:], 0) // tcp checksum
		f.ipPart = sum16(0, f.tmpl[:20])
		// Pseudo header: addresses and protocol; the TCP length is added
		// per packet.
		f.tcPart = sum16(sum16(uint32(ip.ProtoTCP), f.tmpl[12:20]), f.tmpl[20:40])
	}
	return s
}

// reset starts the stream seed picks: the same seed gives the same
// sequence numbers and packet order.
func (s *stream) reset(seed int64) {
	s.r = rng(seed)
	for i := range s.flows {
		s.flows[i].seq = uint32(s.r.next())
	}
	s.sent, s.payload = 0, 0
	s.emitted.Store(0)
	s.bad.Store(0)
}

// syns returns one SYN per flow, built by the repository's own codecs.
// Each flow's data then starts at the SYN's sequence number plus one.
func (s *stream) syns() [][]byte {
	out := make([][]byte, len(s.flows))
	for i := range s.flows {
		f := &s.flows[i]
		seg := tcp.Segment{SrcPort: uint16(1024 + i), DstPort: dstPort, Seq: f.seq - 1,
			Flags: tcp.FlagSYN, Window: 65535}
		h := ip.Header{TTL: 64, Protocol: ip.ProtoTCP, Src: core.WiredAddr, Dst: core.MobileAddr}
		raw, err := h.Marshal(seg.Marshal(core.WiredAddr, core.MobileAddr))
		if err != nil {
			panic(fmt.Sprintf("perfbench: syn: %v", err))
		}
		out[i] = raw
	}
	return out
}

// fill refills dst with the next cap(dst) packets of the stream.
func (s *stream) fill(dst [][]byte) [][]byte {
	dst = dst[:0]
	for k := 0; k < cap(dst); k++ {
		dst = append(dst, s.nextPacket())
	}
	return dst
}

func (s *stream) nextPacket() []byte {
	i := s.sent
	// The sink checks packets in order, so packet i-poolSize (the last
	// user of this buffer) is done once emitted exceeds it.
	if i >= poolSize && s.emitted.Load() <= i-poolSize {
		// Only a plane that lost packets keeps the buffer this long;
		// count it and reuse the buffer rather than wait forever.
		if !waitFor(func() bool { return s.emitted.Load() > i-poolSize }) {
			s.bad.Add(1)
		}
	}
	s.sent++
	slot := i % poolSize
	f := &s.flows[s.r.intn(len(s.flows))]
	c := 0
	switch v := s.r.intn(12); {
	case v >= 11:
		c = 2
	case v >= 7:
		c = 1
	}
	n := sizeClasses[c]
	b := s.pool[slot][:n]
	copy(b, f.tmpl[:])
	seq := f.seq
	f.seq += uint32(n - 40)
	s.payload += int64(n - 40)
	binary.BigEndian.PutUint16(b[2:], uint16(n))
	binary.BigEndian.PutUint32(b[24:], seq)
	ipSum := ^fold(f.ipPart + uint32(n))
	tcpSum := ^fold(f.tcPart + uint32(n-20) + seq>>16 + seq&0xffff + s.paySum[c])
	binary.BigEndian.PutUint16(b[10:], ipSum)
	binary.BigEndian.PutUint16(b[36:], tcpSum)
	s.lens[slot] = int32(n)
	s.want[slot] = uint64(seq)<<32 | uint64(tcpSum)<<16 | uint64(ipSum)
	return b
}

// check verifies that out holds the next packets of the stream, in
// order: the very buffers dispatched, at their length, with sequence
// number and both checksums as generated. A proxy that rewrote a
// header would have changed a checksum or the sequence number; one
// that rewrote payload without resealing is caught by verifyPayload.
// It runs on the sink's goroutine and returns the new count of packets
// checked, which the caller publishes in emitted once it no longer
// reads the generator's per-burst state.
func (s *stream) check(out [][]byte) uint64 {
	e := s.emitted.Load()
	var bad int64
	for _, raw := range out {
		if len(raw) > 0 && &raw[0] != &s.pool[e%poolSize][0] {
			// Packets went missing: find this buffer among the next ones
			// and count the gap.
			for d := uint64(1); d < poolSize; d++ {
				if &raw[0] == &s.pool[(e+d)%poolSize][0] {
					bad += int64(d)
					e += d
					break
				}
			}
		}
		slot := e % poolSize
		e++
		want := s.want[slot]
		if len(raw) != int(s.lens[slot]) || &raw[0] != &s.pool[slot][0] ||
			binary.BigEndian.Uint32(raw[24:]) != uint32(want>>32) ||
			binary.BigEndian.Uint16(raw[36:]) != uint16(want>>16) ||
			binary.BigEndian.Uint16(raw[10:]) != uint16(want) {
			bad++
		}
	}
	if bad > 0 {
		s.bad.Add(bad)
	}
	return e
}

// verifyPayload reports the buffers whose payload no longer holds the
// pattern written at allocation, and checks both checksums of every
// buffer with the repository's own verifiers.
func (s *stream) verifyPayload() int {
	bad := 0
	for i, b := range s.pool {
		n := int(s.lens[i])
		if n == 0 {
			continue
		}
		raw := b[:n]
		if !bytes.Equal(b[40:], pattern) || !ip.VerifyChecksum(raw) ||
			!tcp.VerifyChecksum(core.WiredAddr, core.MobileAddr, raw[20:]) {
			bad++
		}
	}
	return bad
}

// sum16 adds the big-endian 16-bit words of b (even length) to acc.
func sum16(acc uint32, b []byte) uint32 {
	for i := 0; i+1 < len(b); i += 2 {
		acc += uint32(b[i])<<8 | uint32(b[i+1])
	}
	return acc
}

func fold(x uint32) uint16 {
	for x > 0xffff {
		x = x&0xffff + x>>16
	}
	return uint16(x)
}
