package ip

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// refSum is the plain RFC 1071 loop, one 16-bit word per step: the
// reference the wide-word sumBytes must match bit for bit.
func refSum(acc uint32, b []byte) uint32 {
	n := len(b) &^ 1
	for i := 0; i < n; i += 2 {
		acc += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		acc += uint32(b[len(b)-1]) << 8
	}
	return acc
}

func refFinish(acc uint32) uint16 {
	for acc>>16 != 0 {
		acc = acc&0xffff + acc>>16
	}
	return ^uint16(acc)
}

func refChecksum(b []byte) uint16 { return refFinish(refSum(0, b)) }

func refPseudoHeaderChecksum(src, dst Addr, proto byte, segment []byte) uint16 {
	var ph [12]byte
	binary.BigEndian.PutUint32(ph[0:], uint32(src))
	binary.BigEndian.PutUint32(ph[4:], uint32(dst))
	ph[9] = proto
	binary.BigEndian.PutUint16(ph[10:], uint16(len(segment)))
	return refFinish(refSum(refSum(0, ph[:]), segment))
}

// checkParity compares both checksums with the reference over b.
func checkParity(t *testing.T, what string, b []byte) {
	t.Helper()
	if got, want := Checksum(b), refChecksum(b); got != want {
		t.Fatalf("%s len %d: Checksum = %#04x, reference %#04x", what, len(b), got, want)
	}
	src, dst := AddrFrom4(10, 0, 0, 1), AddrFrom4(192, 168, 7, 254)
	if got, want := PseudoHeaderChecksum(src, dst, ProtoTCP, b), refPseudoHeaderChecksum(src, dst, ProtoTCP, b); got != want {
		t.Fatalf("%s len %d: PseudoHeaderChecksum = %#04x, reference %#04x", what, len(b), got, want)
	}
}

// TestChecksumParity covers every length 0–1600, on random, all-0x00
// and all-0xff data, at even and odd offsets into the backing array.
func TestChecksumParity(t *testing.T) {
	const maxLen = 1600
	random := make([]byte, maxLen+3)
	rand.New(rand.NewSource(1)).Read(random)
	zeros := make([]byte, maxLen+3)
	ones := make([]byte, maxLen+3)
	for i := range ones {
		ones[i] = 0xff
	}
	for _, buf := range []struct {
		name string
		b    []byte
	}{{"random", random}, {"zeros", zeros}, {"ones", ones}} {
		for _, off := range []int{0, 1, 3} {
			for n := 0; n <= maxLen; n++ {
				checkParity(t, buf.name, buf.b[off:off+n])
			}
		}
	}
}

func FuzzChecksumParity(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0xff}, uint8(1))
	f.Add(make([]byte, 67), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		if int(off) > len(data) {
			off = uint8(len(data))
		}
		checkParity(t, "fuzz", data[off:])
	})
}

// TestUpdateChecksumTTL checks the forwarding TTL decrement: the
// RFC 1624 update equals a full recompute for every TTL 2–255,
// including headers whose checksum is 0x0000 before or after, where
// the older update formula of RFC 1141 yields 0xffff instead.
func TestUpdateChecksumTTL(t *testing.T) {
	marshal := func(ttl byte, id uint16) []byte {
		h := Header{TTL: ttl, Protocol: ProtoTCP, ID: id, Src: AddrFrom4(10, 1, 2, 3), Dst: AddrFrom4(172, 16, 0, 9)}
		b, err := h.Marshal(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	zeroBefore, zeroAfter := 0, 0
	for ttl := 2; ttl <= 255; ttl++ {
		// The ID equal to the ID-0 checksum sums the header to 0xffff,
		// so its checksum is 0x0000: once at ttl, once at ttl-1.
		edgeBefore := binary.BigEndian.Uint16(marshal(byte(ttl), 0)[10:])
		edgeAfter := binary.BigEndian.Uint16(marshal(byte(ttl-1), 0)[10:])
		for _, id := range []uint16{0, 1, 0x8000, 0xffff, edgeBefore, edgeAfter} {
			b := marshal(byte(ttl), id)
			ck := binary.BigEndian.Uint16(b[10:])
			want := binary.BigEndian.Uint16(marshal(byte(ttl-1), id)[10:])
			word := uint16(ProtoTCP)
			got := UpdateChecksum(ck, uint16(ttl)<<8|word, uint16(ttl-1)<<8|word)
			if got != want {
				t.Fatalf("ttl %d id %#04x: update %#04x, recompute %#04x", ttl, id, got, want)
			}
			if ck == 0 {
				zeroBefore++
			}
			if want == 0 {
				zeroAfter++
			}
		}
	}
	if zeroBefore == 0 || zeroAfter == 0 {
		t.Fatalf("0x0000 edge not exercised: %d before, %d after", zeroBefore, zeroAfter)
	}
}
