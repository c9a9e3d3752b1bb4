package bro

import (
	"bytes"
	"sort"
	"testing"

	"hilti/internal/pkt/gen"
	"hilti/internal/pkt/layers"
)

// fuzzEngine builds a fresh engine per input so every crash reproduces from
// its corpus entry alone (no cross-input connection state).
func fuzzEngine(t *testing.T, parser string) *Engine {
	e, err := NewEngine(Config{Parser: parser, ScriptExec: "interp",
		Scripts: []string{HTTPScript, DNSScript}, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// feedShapes drives one fuzz input through the engine three ways: as a raw
// frame (exercises link/network decode), as a TCP:80 payload (exercises the
// HTTP parser through stream reassembly), and as a UDP:53 payload (exercises
// the DNS parser). The panicky ProcessPacket path is used deliberately: a
// panic anywhere in decode/reassembly/parse is a real bug the quarantine
// machinery should never have to paper over.
func feedShapes(e *Engine, data []byte) {
	src, dst := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	e.ProcessPacket(1, data)

	tcp := layers.EncodeTCP(src, dst, 44000, 80, 100, 0, layers.TCPAck, 65535, data)
	ip := layers.EncodeIPv4(src, dst, layers.IPProtoTCP, 64, 1, tcp)
	e.ProcessPacket(2, layers.EncodeEthernet([6]byte{1}, [6]byte{2}, layers.EtherTypeIPv4, ip))

	udp := layers.EncodeUDP(src, dst, 44001, 53, data)
	ip = layers.EncodeIPv4(src, dst, layers.IPProtoUDP, 64, 2, udp)
	e.ProcessPacket(3, layers.EncodeEthernet([6]byte{1}, [6]byte{2}, layers.EtherTypeIPv4, ip))

	e.Finish()
}

func fuzzSeeds(f *testing.F) {
	f.Add([]byte("GET /index.html HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\n\r\nabc"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n"))
	// A DNS query header claiming more records than the payload carries.
	f.Add([]byte{0x12, 0x34, 0x01, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	// DNS name with a compression pointer to itself.
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x0C, 0, 1, 0, 1})
	f.Add([]byte{})
}

// FuzzEngineFeed fuzzes the full packet path with the hand-written parsers.
func FuzzEngineFeed(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		feedShapes(fuzzEngine(t, "standard"), data)
	})
}

// FuzzEngineFeedBinpac fuzzes the same path with the BinPAC++ grammars
// compiled to HILTI, so hostile bytes reach the generated parse code.
func FuzzEngineFeedBinpac(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		feedShapes(fuzzEngine(t, "binpac"), data)
	})
}

// stateSeeds returns real engine-state inputs for cfg: a checkpoint
// taken mid-trace, the ExtractFlow blob of every flow open at the
// checkpoint, and the per-packet delta records after it.
func stateSeeds(tb testing.TB, cfg Config) [][]byte {
	// A tiny trace keeps the seeds small: the fuzzer minimizes every new
	// input it finds, and minimization time grows with input size.
	hc := gen.DefaultHTTPConfig()
	hc.Sessions = 2
	dc := gen.DefaultDNSConfig()
	dc.Transactions = 4
	pkts := append(gen.GenerateHTTP(hc), gen.GenerateDNS(dc)...)
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].Time.Before(pkts[j].Time) })

	e, err := NewEngine(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	cut := len(pkts) / 3
	for i := 0; i < cut; i++ {
		e.SafeProcessPacket(pkts[i].Time.UnixNano(), pkts[i].Data)
	}
	var ckpt bytes.Buffer
	if err := e.Checkpoint(&ckpt); err != nil {
		tb.Fatal(err)
	}
	if err := e.ResetDeltaBase(); err != nil {
		tb.Fatal(err)
	}
	seeds := [][]byte{ckpt.Bytes()}
	for _, key := range e.MigratableFlows() {
		blob, err := e.ExtractFlow(key)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, blob)
	}
	for i := cut; i < len(pkts) && i < cut+12; i++ {
		e.SafeProcessPacket(pkts[i].Time.UnixNano(), pkts[i].Data)
		rec, err := e.AppendDelta()
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, rec)
	}
	return seeds
}

// FuzzEngineStateDecode feeds hostile bytes to every reader of engine
// state — RestoreEngine, ApplyDelta and InjectFlow — on a fresh engine
// per input. They may reject an input but must never panic. Building
// engines makes each run cost about half a millisecond, so run it with a
// bounded minimization (-fuzzminimizetime=100x); the default 60s per new
// input leaves little time for fuzzing.
func FuzzEngineStateDecode(f *testing.F) {
	cfg := Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{HTTPScript, DNSScript}, Quiet: true}
	for _, s := range stateSeeds(f, cfg) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = RestoreEngine(cfg, bytes.NewReader(data))
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_ = e.ApplyDelta(data)
		_, _ = e.InjectFlow(data)
	})
}
