package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hilti/internal/bpf"
	"hilti/internal/firewall"
	"hilti/internal/hilti/vm"
	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/pcap"
	"hilti/internal/rt/hbytes"
	"hilti/internal/rt/ruleplane"
	"hilti/internal/rt/values"
)

// inlineWL is the packet-level host apps on small frames: every DNS
// frame goes through flow.FromFrame, the rule plane (a seeded ~100k-rule
// ACL), the tier-2 HILTI BPF filter and the HILTI stateful firewall, on
// one goroutine, closed-loop. Per-packet work is small, so these layers'
// costs are not diluted by analysis.
type inlineWL struct {
	pkts  []pcap.Packet
	progs []ruleplane.Program
	expr  bpf.Expr
	rules []firewall.Rule
	ref   []uint8 // reference verdict bits per packet
	dig   string
}

const (
	inlineDNSTxns  = 5000
	inlineACLRules = 100_000
	inlineSetups   = 3
	inlineFilter   = "udp and dst port 53 and src net 10.1.0.0/16 or src host 172.20.0.3"
	fwInactivity   = 5 * time.Minute
	// fwRules is the paper's §6.3 rule set over the DNS trace's pools.
	fwRules = `
10.1.0.0/16   172.20.0.0/16 allow
10.2.0.0/16   172.20.0.0/16 deny
*             172.20.0.5/32 allow
`
)

// Verdict bits: the rule plane passed the packet, the filter matched, the
// firewall allowed it.
const (
	vPlanePass uint8 = 1 << iota
	vFilterMatch
	vFirewallAllow
)

func (w *inlineWL) digest() string { return w.dig }

func (w *inlineWL) prepare(o options) error {
	var err error
	path := filepath.Join(o.dir, fmt.Sprintf("dns-%d-%g.pcap", o.seed, o.size))
	if w.pkts, err = writePcap(path, dnsTrace(o.seed, o.scaled(inlineDNSTxns, 20))); err != nil {
		return err
	}
	w.progs = []ruleplane.Program{aclProgram(o.seed, o.scaled(inlineACLRules, 100))}
	if w.expr, err = bpf.ParseFilter(inlineFilter); err != nil {
		return err
	}
	if w.rules, err = firewall.ParseRules(strings.NewReader(fwRules)); err != nil {
		return err
	}
	d := newDigest()
	d.packets(w.pkts)
	for _, p := range w.progs {
		d.program(p)
	}
	w.dig = d.String()

	// Reference verdicts: the linear rule list, the classic BPF
	// interpreter, and the plain-Go firewall.
	lin := ruleplane.NewLinear(w.progs)
	bprog, err := bpf.CompileBPF(w.expr)
	if err != nil {
		return err
	}
	base := firewall.NewBaseline(w.rules, fwInactivity)
	v := make([]int64, lin.NumPrograms())
	m := make([]int32, lin.NumPrograms())
	w.ref = make([]uint8, len(w.pkts))
	for i, p := range w.pkts {
		key, ok := flow.FromFrame(p.Data)
		var r uint8
		if ok {
			h := ruleplane.HeaderFrom16(key.SrcIP, key.DstIP, key.Proto, key.SrcPort, key.DstPort)
			lin.Eval(&h, v, m)
			if !lin.GateDrop(v) {
				r |= vPlanePass
			}
			if base.Match(p.Time.UnixNano(), key.SrcAddr(), key.DstAddr()) {
				r |= vFirewallAllow
			}
		}
		if bprog.Run(p.Data) != 0 {
			r |= vFilterMatch
		}
		w.ref[i] = r
	}
	return nil
}

// gate is one built inline path.
type gate struct {
	plane    *ruleplane.Plane
	ex       *vm.Exec
	filterFn *vm.CompiledFunc
	fw       *firewall.Firewall
}

// build assembles one inline path, recording set-up spans on tr
// (nil-safe).
func (w *inlineWL) build(tr *tracer) (*gate, error) {
	g := &gate{}
	var err error
	tr.begin(spPlaneNew, -1)
	g.plane, err = ruleplane.New(w.progs)
	tr.end()
	if err != nil {
		return nil, err
	}
	mod, err := bpf.CompileHILTI(w.expr)
	if err != nil {
		return nil, err
	}
	prog, err := vm.LinkWith(vm.Options{OptLevel: 2}, mod)
	if err != nil {
		return nil, err
	}
	if g.ex, err = vm.NewExec(prog); err != nil {
		return nil, err
	}
	if g.filterFn = prog.Fn("Filter::filter"); g.filterFn == nil {
		return nil, fmt.Errorf("filter program has no Filter::filter")
	}
	if g.fw, err = newFirewall(tr, w.rules); err != nil {
		return nil, err
	}
	return g, nil
}

func newFirewall(tr *tracer, rules []firewall.Rule) (*firewall.Firewall, error) {
	tr.begin(spFirewallNew, -1)
	defer tr.end()
	return firewall.New(rules, fwInactivity)
}

func (w *inlineWL) pass(o options, traced bool) (*passResult, error) {
	var ts *traceSet
	if traced {
		ts = newTraceSet()
	}
	tr := ts.add()
	var setups []float64
	var g *gate
	for i := 0; i < inlineSetups; i++ {
		g = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if g, err = w.build(tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	n := len(w.pkts)
	got := make([]uint8, n)
	verdicts := make([]int64, g.plane.NumPrograms())
	rope := hbytes.New()
	epoch := time.Now()
	now := func() int64 { return int64(time.Since(epoch)) }

	var (
		lat   windows
		lag   hist
		rt    rtSnap
		pps   []float64
		drops int64
		res   = &passResult{layer: map[string]float64{}}
	)
	hs := newHeapSampler()
	begin := time.Now()
	for rep := 0; rep < 3 || time.Since(begin).Seconds() < o.seconds; rep++ {
		// The firewall is stateful: each replay starts from a fresh one,
		// so every replay must reproduce the reference verdicts.
		fw, err := newFirewall(tr, w.rules)
		if err != nil {
			return nil, err
		}
		g.fw = fw
		before := snapRuntime()
		t1 := now()
		prevEnd := t1
		for i := range w.pkts {
			p := &w.pkts[i]
			t0 := now()
			lag.add(t0 - prevEnd)
			tr.begin(spPath, i)
			tr.begin(spFlowKey, i)
			key, ok := flow.FromFrame(p.Data)
			tr.end()
			var v uint8
			if ok {
				h := ruleplane.HeaderFrom16(key.SrcIP, key.DstIP, key.Proto, key.SrcPort, key.DstPort)
				tr.begin(spPlaneEval, i)
				_, drop := g.plane.Eval(&h, verdicts)
				tr.end()
				if !drop {
					v |= vPlanePass
				}
			}
			tr.begin(spBPFFilter, i)
			rope.Reset(p.Data)
			fv, err := g.ex.CallFn(g.filterFn, values.BytesVal(rope))
			tr.end()
			if err != nil {
				return nil, err
			}
			if fv.AsBool() {
				v |= vFilterMatch
			}
			if ok {
				tr.begin(spFirewall, i)
				allow, err := g.fw.Match(p.Time.UnixNano(), key.SrcAddr(), key.DstAddr())
				tr.end()
				if err != nil {
					return nil, err
				}
				if allow {
					v |= vFirewallAllow
				}
			}
			tr.end()
			got[i] = v
			prevEnd = now()
			lat.add(prevEnd - t0)
			if i&4095 == 0 {
				hs.sample()
			}
		}
		el := now() - t1
		rt.add(before, snapRuntime())
		lat.cut()
		pps = append(pps, float64(n)/(float64(el)/1e9))
		res.attempted += int64(n)
		for i := range got {
			if got[i] != w.ref[i] {
				return res, gateErrorf("inline-gate replay %d packet %d: verdict bits %03b, reference %03b",
					rep, i, got[i], w.ref[i])
			}
			if got[i]&vPlanePass == 0 {
				drops++
			}
		}
	}
	hs.sample()

	p50, p99, err := lat.medians()
	if err != nil {
		return nil, err
	}
	total := float64(res.attempted)
	res.e2e = map[string]float64{
		"pkts_per_s":     median(pps),
		"latency_p50_us": p50 / 1e3,
		"latency_p99_us": p99 / 1e3,
		"allocs_per_pkt": float64(rt.mallocs) / total,
		"heap_peak_mb":   hs.peakMB(),
		"setup_s":        median(setups),
	}
	fmt.Printf("inline-gate: %d packets per replay, generator lag %.3f us; %s\n",
		n, lag.mean()/1e3, describe("pkts_per_s", pps))
	if !traced {
		return res, nil
	}
	L := res.layer
	L["loadgen.lag_us"] = lag.mean() / 1e3
	L["ruleplane.eval_ns_per_pkt"] = float64(ts.agg(spPlaneEval).total) / total
	L["ruleplane.drop_frac"] = float64(drops) / total
	L["bpf.filter_ns_per_pkt"] = float64(ts.agg(spBPFFilter).total) / total
	L["firewall.match_ns_per_pkt"] = float64(ts.agg(spFirewall).total) / total
	L["runtime.gc_cpu_frac"] = rt.gcFrac()
	L["runtime.gc_cycles"] = float64(rt.gcCycles)
	frameProbes(L, w.pkts)
	if err := ts.write(filepath.Join(o.dir, "spans-inline-gate.tsv")); err != nil {
		return nil, err
	}
	return res, nil
}
