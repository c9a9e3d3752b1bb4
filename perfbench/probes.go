package main

import (
	"runtime"
	"time"

	"hilti/internal/analyzers"
	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/layers"
	"hilti/internal/pkt/pcap"
	"hilti/internal/pkt/reassembly"
	"hilti/internal/rt/admission"
	"hilti/internal/rt/ruleplane"
)

// Probes time one layer's public entry point over the workload's own
// frames, outside any pipeline, for layers the end-to-end path calls only
// from inside the program (decode, flow keys, reassembly, the protocol
// analyzers, admission). Each probe repeats until it has run for
// probeTime, so short inputs still give a stable mean.

const probeTime = 150 * time.Millisecond

// repeatFor runs fn over the input until probeTime has elapsed and
// returns the mean ns per item (fn returns the items it handled).
func repeatFor(fn func() int) float64 {
	var items int
	start := time.Now()
	for time.Since(start) < probeTime || items == 0 {
		n := fn()
		if n == 0 {
			return 0
		}
		items += n
	}
	return float64(time.Since(start).Nanoseconds()) / float64(items)
}

// frameProbes fills the probe-based per-layer metrics for a workload's
// frames.
func frameProbes(L map[string]float64, pkts []pcap.Packet) {
	decode := func() int {
		for _, p := range pkts {
			eth, err := layers.DecodeEthernet(p.Data)
			if err != nil || eth.EtherType != layers.EtherTypeIPv4 {
				continue
			}
			ip, err := layers.DecodeIPv4(eth.Payload)
			if err != nil {
				continue
			}
			switch ip.Protocol {
			case layers.IPProtoTCP:
				layers.DecodeTCP(ip.Payload) //nolint:errcheck // timing only
			case layers.IPProtoUDP:
				layers.DecodeUDP(ip.Payload) //nolint:errcheck // timing only
			}
		}
		return len(pkts)
	}
	L["layers.decode_ns_per_pkt"] = repeatFor(decode)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	decode()
	runtime.ReadMemStats(&ms1)
	if len(pkts) > 0 {
		L["layers.allocs_per_pkt"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(pkts))
	}
	L["flow.key_ns_per_pkt"] = repeatFor(func() int {
		for _, p := range pkts {
			flow.FromFrame(p.Data)
		}
		return len(pkts)
	})

	segNs, streams := reassemblyProbe(pkts)
	L["reassembly.segment_ns"] = segNs
	L["analyzers.http_ns_per_kb"] = httpProbe(streams)
	L["analyzers.dns_ns_per_msg"] = dnsProbe(pkts)
	L["admission.offer_ns_per_pkt"] = admissionProbe(pkts)
}

// tcpConn is one probed TCP connection's reassembled payload.
type tcpConn struct {
	orig       flow.Key
	origS      reassembly.Stream
	respS      reassembly.Stream
	origB      []byte
	respB      []byte
	serverPort uint16
}

type segment struct {
	key  flow.Key
	seq  uint32
	syn  bool
	fin  bool
	data []byte
}

// reassemblyProbe feeds the frames' TCP segments through one
// reassembly.Stream per direction and returns the mean ns per segment
// plus every connection's reassembled bytes.
func reassemblyProbe(pkts []pcap.Packet) (float64, []*tcpConn) {
	var segs []segment
	for _, p := range pkts {
		eth, err := layers.DecodeEthernet(p.Data)
		if err != nil || eth.EtherType != layers.EtherTypeIPv4 {
			continue
		}
		ip, err := layers.DecodeIPv4(eth.Payload)
		if err != nil || ip.Protocol != layers.IPProtoTCP {
			continue
		}
		tcp, err := layers.DecodeTCP(ip.Payload)
		if err != nil {
			continue
		}
		segs = append(segs, segment{
			key:  flow.FromIPv4(ip.Src, ip.Dst, tcp.SrcPort, tcp.DstPort, layers.IPProtoTCP),
			seq:  tcp.Seq,
			syn:  tcp.Flags&layers.TCPSyn != 0,
			fin:  tcp.Flags&layers.TCPFin != 0,
			data: tcp.Payload,
		})
	}
	if len(segs) == 0 {
		return 0, nil
	}
	var conns []*tcpConn
	replay := func(collect bool) int {
		byKey := map[flow.Key]*tcpConn{}
		for i := range segs {
			s := &segs[i]
			ck, _ := s.key.Canonical()
			c := byKey[ck]
			if c == nil {
				c = &tcpConn{orig: s.key, serverPort: s.key.DstPort}
				if collect {
					c.origS.Deliver = func(d []byte) { c.origB = append(c.origB, d...) }
					c.respS.Deliver = func(d []byte) { c.respB = append(c.respB, d...) }
					conns = append(conns, c)
				}
				byKey[ck] = c
			}
			st := &c.respS
			if s.key == c.orig {
				st = &c.origS
			}
			if s.syn {
				st.Init(s.seq)
			}
			st.Segment(s.seq, s.data, s.fin)
		}
		return len(segs)
	}
	replay(true)
	return repeatFor(func() int { return replay(false) }), conns
}

// nopHTTP discards the standard HTTP parser's events.
type nopHTTP struct{}

func (nopHTTP) Request(string, string, string) {}
func (nopHTTP) Reply(string, int, string)      {}
func (nopHTTP) Header(bool, string, string)    {}
func (nopHTTP) Body(bool, string, string, int) {}
func (nopHTTP) MessageDone(bool)               {}
func (nopHTTP) ParseError(bool, string)        {}

// httpProbe runs the standard HTTP parser over every port-80
// connection's reassembled streams and returns ns per KB parsed.
func httpProbe(conns []*tcpConn) float64 {
	var bytes int
	var http []*tcpConn
	for _, c := range conns {
		if c.serverPort == 80 && len(c.origB)+len(c.respB) > 0 {
			http = append(http, c)
			bytes += len(c.origB) + len(c.respB)
		}
	}
	if bytes == 0 {
		return 0
	}
	ns := repeatFor(func() int {
		for _, c := range http {
			p := analyzers.NewHTTPParser(nopHTTP{})
			p.Deliver(true, c.origB)
			p.Deliver(false, c.respB)
			p.EndOfData(true)
			p.EndOfData(false)
		}
		return bytes
	})
	return ns * 1024
}

// dnsProbe parses every port-53 UDP payload and returns ns per message.
func dnsProbe(pkts []pcap.Packet) float64 {
	var msgs [][]byte
	for _, p := range pkts {
		eth, err := layers.DecodeEthernet(p.Data)
		if err != nil || eth.EtherType != layers.EtherTypeIPv4 {
			continue
		}
		ip, err := layers.DecodeIPv4(eth.Payload)
		if err != nil || ip.Protocol != layers.IPProtoUDP {
			continue
		}
		udp, err := layers.DecodeUDP(ip.Payload)
		if err != nil || (udp.SrcPort != 53 && udp.DstPort != 53) {
			continue
		}
		msgs = append(msgs, udp.Payload)
	}
	if len(msgs) == 0 {
		return 0
	}
	return repeatFor(func() int {
		for _, m := range msgs {
			analyzers.ParseDNS(m) //nolint:errcheck // crud on port 53 fails to parse, by design
		}
		return len(msgs)
	})
}

// admissionProbe offers every frame to a fresh controller configured like
// churn-wal-closed's and returns ns per Offer.
func admissionProbe(pkts []pcap.Packet) float64 {
	type in struct {
		ts     int64
		key    flow.Key
		hasKey bool
	}
	ins := make([]in, len(pkts))
	for i, p := range pkts {
		k, ok := flow.FromFrame(p.Data)
		ins[i] = in{p.Time.UnixNano(), k, ok}
	}
	if len(ins) == 0 {
		return 0
	}
	return repeatFor(func() int {
		c := admission.NewController(admissionConfig(churnRate))
		for _, x := range ins {
			c.Offer(x.ts, x.key, x.hasKey)
		}
		return len(ins)
	})
}

// planeProbe evaluates every keyable frame's header against the plane's
// programs with a fresh compiled automaton and returns ns per Eval.
func planeProbe(pkts []pcap.Packet, progs []ruleplane.Program) (float64, error) {
	pl, err := ruleplane.New(progs)
	if err != nil {
		return 0, err
	}
	hs := make([]ruleplane.Header, 0, len(pkts))
	for _, p := range pkts {
		if k, ok := flow.FromFrame(p.Data); ok {
			hs = append(hs, ruleplane.HeaderFrom16(k.SrcIP, k.DstIP, k.Proto, k.SrcPort, k.DstPort))
		}
	}
	if len(hs) == 0 {
		return 0, nil
	}
	v := make([]int64, pl.NumPrograms())
	return repeatFor(func() int {
		for i := range hs {
			pl.Eval(&hs[i], v)
		}
		return len(hs)
	}), nil
}
