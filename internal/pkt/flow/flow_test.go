package flow

import (
	"testing"
	"testing/quick"

	"hilti/internal/pkt/layers"
)

func sample() Key {
	return FromIPv4([4]byte{10, 0, 0, 1}, [4]byte{192, 168, 1, 1}, 49152, 80, 6)
}

func TestReverse(t *testing.T) {
	k := sample()
	r := k.Reverse()
	if r.SrcPort != 80 || r.DstPort != 49152 {
		t.Fatalf("ports %d %d", r.SrcPort, r.DstPort)
	}
	if r.Reverse() != k {
		t.Fatal("double reverse should be identity")
	}
}

func TestCanonicalDirectionIndependent(t *testing.T) {
	k := sample()
	c1, fwd1 := k.Canonical()
	c2, fwd2 := k.Reverse().Canonical()
	if c1 != c2 {
		t.Fatal("canonical keys differ by direction")
	}
	if fwd1 == fwd2 {
		t.Fatal("exactly one direction should be canonical")
	}
}

func TestHashDirectionIndependent(t *testing.T) {
	k := sample()
	if k.Hash() != k.Reverse().Hash() {
		t.Fatal("hash differs by direction")
	}
	other := FromIPv4([4]byte{10, 0, 0, 2}, [4]byte{192, 168, 1, 1}, 49152, 80, 6)
	if k.Hash() == other.Hash() {
		t.Fatal("distinct flows should hash differently (with overwhelming probability)")
	}
}

func TestValues(t *testing.T) {
	k := sample()
	if got := k.String(); got != "10.0.0.1:49152 -> 192.168.1.1:80/6" {
		t.Fatalf("string %q", got)
	}
}

func TestUIDStableAndDistinct(t *testing.T) {
	k := sample()
	if UID(k, 100) != UID(k, 100) {
		t.Fatal("uid not deterministic")
	}
	if UID(k, 100) == UID(k, 200) {
		t.Fatal("uid should depend on start time")
	}
	if UID(k, 100)[0] != 'C' {
		t.Fatal("uid prefix")
	}
}

// Property: hash and canonicalization are direction-independent for
// arbitrary flows.
func TestQuickDirectionInvariance(t *testing.T) {
	f := func(s, d [4]byte, sp, dp uint16, proto uint8) bool {
		k := FromIPv4(s, d, sp, dp, proto)
		c1, _ := k.Canonical()
		c2, _ := k.Reverse().Canonical()
		return k.Hash() == k.Reverse().Hash() && c1 == c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFromFrame(t *testing.T) {
	src, dst := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	tcp := layers.EncodeTCP(src, dst, 49152, 80, 1, 0, layers.TCPSyn, 1024, nil)
	ip := layers.EncodeIPv4(src, dst, layers.IPProtoTCP, 64, 1, tcp)
	fr := layers.EncodeEthernet([6]byte{1}, [6]byte{2}, layers.EtherTypeIPv4, ip)
	k, ok := FromFrame(fr)
	if !ok {
		t.Fatal("TCP frame should be keyable")
	}
	want := FromIPv4(src, dst, 49152, 80, layers.IPProtoTCP)
	if k != want {
		t.Fatalf("key = %v, want %v", k, want)
	}
	// Both directions hash to the same virtual thread.
	udp := layers.EncodeUDP(dst, src, 80, 49152, []byte("x"))
	ip = layers.EncodeIPv4(dst, src, layers.IPProtoUDP, 64, 2, udp)
	fr = layers.EncodeEthernet([6]byte{1}, [6]byte{2}, layers.EtherTypeIPv4, ip)
	k2, ok := FromFrame(fr)
	if !ok {
		t.Fatal("UDP frame should be keyable")
	}
	if k2.Proto != layers.IPProtoUDP || k2.SrcPort != 80 {
		t.Fatalf("udp key = %v", k2)
	}
	if _, ok := FromFrame([]byte{1, 2, 3}); ok {
		t.Fatal("truncated frame must not be keyable")
	}
}

// TestKeyWire: the wire form round-trips every key shape, keeps its
// fixed layout (addresses, big-endian ports, protocol), and rejects input
// of any other length.
func TestKeyWire(t *testing.T) {
	var v6 Key
	for i := range v6.SrcIP {
		v6.SrcIP[i], v6.DstIP[i] = byte(i), byte(0xF0|i)
	}
	v6.SrcPort, v6.DstPort, v6.Proto = 0xFFFF, 1, 17
	for _, tc := range []struct {
		name string
		key  Key
	}{
		{"ipv4-tcp", sample()},
		{"reversed", sample().Reverse()},
		{"ipv6-udp", v6},
		{"zero", Key{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := tc.key.Wire()
			if got := int(raw[32])<<8 | int(raw[33]); got != int(tc.key.SrcPort) {
				t.Fatalf("source port bytes %d, want %d", got, tc.key.SrcPort)
			}
			if raw[36] != tc.key.Proto {
				t.Fatalf("protocol byte %d, want %d", raw[36], tc.key.Proto)
			}
			back, err := KeyFromWire(raw[:])
			if err != nil {
				t.Fatal(err)
			}
			if back != tc.key {
				t.Fatalf("round trip: got %v, want %v", back, tc.key)
			}
		})
	}
	for _, n := range []int{0, KeyLen - 1, KeyLen + 1} {
		if _, err := KeyFromWire(make([]byte, n)); err == nil {
			t.Errorf("%d-byte key accepted", n)
		}
	}
}

func BenchmarkHash(b *testing.B) {
	k := sample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Hash()
	}
}
