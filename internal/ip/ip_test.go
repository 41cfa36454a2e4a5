package ip

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestAddrRoundTrip(t *testing.T) {
	cases := []string{"0.0.0.0", "11.11.10.99", "129.97.40.42", "255.255.255.255"}
	for _, s := range cases {
		a, err := ParseAddr(s)
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", s, err)
		}
		if a.String() != s {
			t.Errorf("round trip %q -> %q", s, a.String())
		}
	}
}

func TestParseAddrRejectsBad(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "300.1.1.1", "a.b.c.d"} {
		if _, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q) succeeded, want error", s)
		}
	}
}

func TestAddrMask(t *testing.T) {
	a := MustParseAddr("11.11.10.99")
	if got := a.Mask(24); got != MustParseAddr("11.11.10.0") {
		t.Errorf("Mask(24) = %v", got)
	}
	if got := a.Mask(16); got != MustParseAddr("11.11.0.0") {
		t.Errorf("Mask(16) = %v", got)
	}
	if got := a.Mask(0); got != 0 {
		t.Errorf("Mask(0) = %v", got)
	}
	if got := a.Mask(32); got != a {
		t.Errorf("Mask(32) = %v", got)
	}
}

func TestHeaderMarshalUnmarshal(t *testing.T) {
	h := Header{
		TOS:      0x10,
		ID:       0x1234,
		Flags:    FlagDF,
		TTL:      64,
		Protocol: ProtoTCP,
		Src:      MustParseAddr("11.11.10.99"),
		Dst:      MustParseAddr("11.11.10.10"),
	}
	payload := []byte("hello wireless world")
	b, err := h.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyChecksum(b) {
		t.Fatal("marshalled header fails checksum verification")
	}
	g, p, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if g.Src != h.Src || g.Dst != h.Dst || g.Protocol != h.Protocol ||
		g.TTL != h.TTL || g.ID != h.ID || g.TOS != h.TOS || g.Flags != h.Flags {
		t.Fatalf("decoded header mismatch: %+v vs %+v", g, h)
	}
	if !bytes.Equal(p, payload) {
		t.Fatalf("payload mismatch: %q", p)
	}
	if int(g.TotalLen) != HeaderLen+len(payload) {
		t.Fatalf("TotalLen = %d", g.TotalLen)
	}
}

func TestHeaderWithOptions(t *testing.T) {
	h := Header{TTL: 1, Protocol: ProtoUDP, Options: []byte{1, 1, 1, 1}}
	b, err := h.Marshal([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	g, p, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Options, h.Options) {
		t.Fatalf("options mismatch: %v", g.Options)
	}
	if string(p) != "x" {
		t.Fatalf("payload = %q", p)
	}
}

func TestMarshalRejectsBadOptions(t *testing.T) {
	h := Header{Options: []byte{1, 2, 3}}
	if _, err := h.Marshal(nil); err == nil {
		t.Fatal("odd options length accepted")
	}
	h.Options = make([]byte, 44)
	if _, err := h.Marshal(nil); err == nil {
		t.Fatal("oversize options accepted")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, _, err := Unmarshal(make([]byte, 10)); err != ErrTruncated {
		t.Errorf("short buffer: %v", err)
	}
	b := make([]byte, 20)
	b[0] = 6 << 4
	if _, _, err := Unmarshal(b); err != ErrVersion {
		t.Errorf("wrong version: %v", err)
	}
	// Valid header claiming more bytes than present.
	h := Header{TTL: 1, Protocol: ProtoTCP}
	enc, _ := h.Marshal([]byte("abcdef"))
	if _, _, err := Unmarshal(enc[:22]); err != ErrTruncated {
		t.Errorf("truncated payload: %v", err)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	h := Header{TTL: 9, Protocol: ProtoTCP, Src: 1, Dst: 2}
	b, _ := h.Marshal(nil)
	b[8] ^= 0xff // flip TTL
	if VerifyChecksum(b) {
		t.Fatal("corrupted header passed checksum")
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 worked example.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != ^uint16(0xddf2) {
		t.Fatalf("Checksum = %#x, want %#x", got, ^uint16(0xddf2))
	}
}

func TestPseudoHeaderChecksumVaries(t *testing.T) {
	seg := []byte{0, 80, 0, 99, 0, 0, 0, 0, 0, 0, 0, 0, 5 << 4, 0, 0, 0, 0, 0, 0, 0}
	a := PseudoHeaderChecksum(1, 2, ProtoTCP, seg)
	b := PseudoHeaderChecksum(1, 3, ProtoTCP, seg)
	if a == b {
		t.Fatal("pseudo-header checksum ignores destination address")
	}
}

func TestEncapsulateDecapsulate(t *testing.T) {
	inner := Header{TTL: 64, Protocol: ProtoTCP, Src: MustParseAddr("10.0.0.1"), Dst: MustParseAddr("10.0.0.2")}
	in, _ := inner.Marshal([]byte("payload"))
	enc, err := Encapsulate(MustParseAddr("1.1.1.1"), MustParseAddr("2.2.2.2"), in, 7)
	if err != nil {
		t.Fatal(err)
	}
	oh, _, err := Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	if oh.Protocol != ProtoIPIP || oh.Src != MustParseAddr("1.1.1.1") {
		t.Fatalf("outer header wrong: %+v", oh)
	}
	out, err := Decapsulate(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, in) {
		t.Fatal("inner packet corrupted by tunnel round trip")
	}
	// Decapsulating a non-tunnel packet must fail.
	if _, err := Decapsulate(in); err == nil {
		t.Fatal("decapsulated a TCP packet")
	}
}

func TestICMPRoundTrip(t *testing.T) {
	m := ICMPMessage{Type: ICMPEcho, Code: 0, ID: 77, Seq: 3, Body: []byte("ping")}
	b := MarshalICMP(m)
	g, err := UnmarshalICMP(b)
	if err != nil {
		t.Fatal(err)
	}
	if g.Type != m.Type || g.ID != m.ID || g.Seq != m.Seq || !bytes.Equal(g.Body, m.Body) {
		t.Fatalf("ICMP round trip mismatch: %+v", g)
	}
	b[8] ^= 1
	if _, err := UnmarshalICMP(b); err != ErrICMPChecksum {
		t.Fatalf("corrupted ICMP: err = %v", err)
	}
}

func TestRouterAdvertisementRoundTrip(t *testing.T) {
	ra := RouterAdvertisement{
		Lifetime:   1800,
		Addrs:      []Addr{MustParseAddr("11.11.10.1"), MustParseAddr("11.11.10.2")},
		AgentFlags: AgentFlagFA,
	}
	b := MarshalRouterAdvertisement(ra)
	m, err := UnmarshalICMP(b)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ParseRouterAdvertisement(m)
	if err != nil {
		t.Fatal(err)
	}
	if g.Lifetime != ra.Lifetime || len(g.Addrs) != 2 || g.Addrs[0] != ra.Addrs[0] || g.AgentFlags != AgentFlagFA {
		t.Fatalf("advertisement mismatch: %+v", g)
	}
	// Parsing a non-advertisement must fail.
	if _, err := ParseRouterAdvertisement(ICMPMessage{Type: ICMPEcho}); err == nil {
		t.Fatal("parsed echo as router advertisement")
	}
}

// Property: header marshal/unmarshal round-trips for arbitrary field
// values, and the checksum always verifies.
func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(tos, ttl, proto byte, id uint16, src, dst uint32, payload []byte) bool {
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		h := Header{TOS: tos, TTL: ttl, Protocol: proto, ID: id, Src: Addr(src), Dst: Addr(dst)}
		b, err := h.Marshal(payload)
		if err != nil {
			return false
		}
		if !VerifyChecksum(b) {
			return false
		}
		g, p, err := Unmarshal(b)
		if err != nil {
			return false
		}
		return g.Src == h.Src && g.Dst == h.Dst && g.TTL == ttl &&
			g.Protocol == proto && g.ID == id && bytes.Equal(p, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// PutHeader writes into reserved headroom the same bytes Marshal
// builds, and rejects a buffer too short for the header.
func TestPutHeaderMatchesMarshal(t *testing.T) {
	mk := func() Header {
		return Header{TTL: 9, Protocol: ProtoUDP, ID: 77, Src: AddrFrom4(10, 0, 0, 1),
			Dst: AddrFrom4(10, 0, 0, 2), Options: []byte{1, 1, 1, 0}}
	}
	payload := []byte("payload bytes")
	h := mk()
	want, err := h.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	copy(got[h.HeaderLength():], payload)
	h2 := mk()
	if err := h2.PutHeader(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || h2.TotalLen != h.TotalLen || h2.Checksum != h.Checksum {
		t.Fatalf("PutHeader wrote % x (len %d ck %#04x), Marshal % x (len %d ck %#04x)",
			got, h2.TotalLen, h2.Checksum, want, h.TotalLen, h.Checksum)
	}
	if err := h2.PutHeader(make([]byte, h2.HeaderLength()-1)); err == nil {
		t.Fatal("PutHeader accepted a buffer shorter than the header")
	}
}
