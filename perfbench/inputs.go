package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"os"
	"sort"
	"time"

	"hilti/internal/pkt/gen"
	"hilti/internal/pkt/pcap"
	"hilti/internal/rt/ruleplane"
	"hilti/internal/rt/values"
)

// Every input is synthesised from the workload seed before anything is
// timed; the program only ever sees the generated packets and rules.

var traceStart = time.Unix(1_400_000_000, 0).UTC()

// mergedTrace is the HTTP+DNS trace of the two trace workloads: both
// generators start at the same instant and their packets are merged by
// timestamp, so HTTP sessions and DNS transactions interleave.
func mergedTrace(seed int64, httpSessions, dnsTxns int) []pcap.Packet {
	hc := gen.DefaultHTTPConfig()
	hc.Seed, hc.Sessions, hc.Start = seed, httpSessions, traceStart
	dc := gen.DefaultDNSConfig()
	dc.Seed, dc.Transactions, dc.Start = seed+1, dnsTxns, traceStart
	pkts := append(gen.GenerateHTTP(hc), gen.GenerateDNS(dc)...)
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].Time.Before(pkts[j].Time) })
	return pkts
}

// dnsTrace is the inline-gate workload's small-frame trace.
func dnsTrace(seed int64, txns int) []pcap.Packet {
	dc := gen.DefaultDNSConfig()
	dc.Seed, dc.Transactions, dc.Start = seed, txns, traceStart
	return gen.GenerateDNS(dc)
}

// soakStream pre-generates the churn-wal-closed stream: a steady soak
// (no overload window) at rate packets per trace second.
func soakStream(seed int64, dur time.Duration, rate float64, flows int) []pcap.Packet {
	cfg := gen.DefaultSoakConfig()
	cfg.Seed = seed
	cfg.Duration = dur
	cfg.BaseRate = rate
	cfg.TargetFlows = flows
	cfg.OverloadFactor = 1
	s := gen.NewSoak(cfg)
	var pkts []pcap.Packet
	for {
		p, ok := s.Next()
		if !ok {
			return pkts
		}
		pkts = append(pkts, p)
	}
}

// writePcap stores pkts as a pcap file and reads it back through
// pcap.Reader, returning the packets exactly as every later pass sees
// them (the file format keeps microseconds).
func writePcap(path string, pkts []pcap.Packet) ([]pcap.Packet, error) {
	if err := pcap.WriteFile(path, 1, pkts); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rd, err := pcap.NewReader(f)
	if err != nil {
		return nil, err
	}
	var out []pcap.Packet
	for {
		p, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("reading back %s: %w", path, err)
		}
		out = append(out, p)
	}
}

// aclProgram builds a seeded, pass-mostly gate ACL of n rules over the
// generators' address pools (clients 10.1-8.x, HTTP servers 172.16.x, DNS
// resolvers 172.20.0.x). Nearly every rule names a client /24 or host, so
// a packet matches only a handful of the n rules; the first match wins,
// one client rule in ten drops (verdict 0) and unmatched packets pass.
func aclProgram(seed int64, n int) ruleplane.Program {
	rng := rand.New(rand.NewSource(seed))
	prog := ruleplane.Program{Name: "acl", Default: 1, Gate: true}
	net := func(f string, args ...any) ruleplane.AddrPred {
		return ruleplane.AddrInNet(values.MustParseNet(fmt.Sprintf(f, args...)))
	}
	for i := 0; i < n; i++ {
		var r ruleplane.Rule
		a, b := 1+rng.Intn(8), 1+rng.Intn(250)
		switch k := rng.Intn(100); {
		case k < 80:
			r.Src = append(r.Src, net("10.%d.%d.0/24", a, b))
		case k < 99:
			r.Src = append(r.Src, net("10.%d.%d.%d/32", a, b, 1+rng.Intn(250)))
		}
		switch k := rng.Intn(10); {
		case k < 4:
			r.Dst = append(r.Dst, net("172.16.%d.0/24", 1+rng.Intn(40)))
		case k < 7 || len(r.Src) == 0:
			r.Dst = append(r.Dst, net("172.20.0.%d/32", 1+rng.Intn(8)))
		}
		if rng.Intn(4) == 0 {
			p := ruleplane.PortPred{Kind: ruleplane.PortIn, Lo: 53, Hi: 53}
			switch rng.Intn(3) {
			case 0:
				p.Lo, p.Hi = 80, 80
			case 1:
				p.Lo = uint16(1024 + rng.Intn(60000))
				p.Hi = p.Lo + uint16(rng.Intn(4000))
			}
			r.DstPort = append(r.DstPort, p)
		}
		if rng.Intn(5) == 0 {
			r.Proto = append(r.Proto, ruleplane.ProtoPred{Kind: ruleplane.ProtoIs, Proto: []uint8{6, 17}[rng.Intn(2)]})
		}
		// Only rules that name a client may drop; the few "any client"
		// rules are allowances.
		r.Verdict = 1
		if rng.Intn(10) == 0 && len(r.Src) > 0 {
			r.Verdict = 0
		}
		prog.Rules = append(prog.Rules, r)
	}
	return prog
}

// digest fingerprints a workload's generated inputs: every packet's
// timestamp and bytes, then every rule of every program.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) packets(pkts []pcap.Packet) {
	d.u64(uint64(len(pkts)))
	for _, p := range pkts {
		d.u64(uint64(p.Time.UnixNano()))
		d.u64(uint64(len(p.Data)))
		d.h.Write(p.Data)
	}
}

func (d *digest) program(p ruleplane.Program) {
	fmt.Fprintf(d.h, "%s/%d/%v/%d;", p.Name, p.Default, p.Gate, len(p.Rules))
	for i := range p.Rules {
		fmt.Fprintf(d.h, "%v;", p.Rules[i])
	}
}

func (d *digest) String() string { return hex.EncodeToString(d.h.Sum(nil)) }

// packetIndex maps a frame, as a handler receives it, back to its
// position in feed order: handlers see only (timestamp, bytes), so the
// key hashes both. Frames that collide on the key are left out (-1).
type packetIndex struct{ m map[uint64]int32 }

func frameKey(tsNs int64, frame []byte) uint64 {
	// FNV-1a over the headers (inline: the handler calls this per packet
	// and must not allocate).
	b := frame
	if len(b) > 96 {
		b = b[:96]
	}
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h ^ uint64(tsNs)*0x9e3779b97f4a7c15 ^ uint64(len(frame))<<48
}

func newPacketIndex(pkts []pcap.Packet) *packetIndex {
	m := make(map[uint64]int32, len(pkts))
	for i, p := range pkts {
		k := frameKey(p.Time.UnixNano(), p.Data)
		if _, dup := m[k]; dup {
			m[k] = -1
			continue
		}
		m[k] = int32(i)
	}
	return &packetIndex{m: m}
}

func (x *packetIndex) lookup(tsNs int64, frame []byte) int {
	if x == nil {
		return -1
	}
	if i, ok := x.m[frameKey(tsNs, frame)]; ok {
		return int(i)
	}
	return -1
}
