package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"hilti/internal/bro"
	"hilti/internal/pkt/pcap"
	"hilti/internal/pkt/pipeline"
	"hilti/internal/pkt/reassembly"
	"hilti/internal/rt/metrics"
)

// traceWL is the two trace workloads: the merged HTTP+DNS trace, read
// from a pcap file and replayed closed-loop, either through a 2-worker
// pipeline of engines with standard parsers and interpreted scripts
// (trace-interp) or through one engine with BinPAC++ parsers and
// compiled scripts (trace-compiled). Each replay builds the engines
// afresh, so every replay is one set-up sample and one throughput sample.
type traceWL struct {
	compiled bool
	path     string
	pkts     []pcap.Packet // the trace as pcap.Reader returns it
	ids      *packetIndex
	dig      string
	// Reference outputs (single engine; for trace-compiled, BinPAC++
	// parsers with interpreted scripts).
	refDigest string
	table2    map[string]float64 // BinPAC++ vs standard parsers, identical fraction per log
}

const (
	traceHTTPSessions = 1500
	traceDNSTxns      = 8000
	traceWorkers      = 2
	reasmBudget       = 64 << 20
)

func (w *traceWL) digest() string { return w.dig }

func (w *traceWL) config(parser, scripts string) bro.Config {
	return bro.Config{
		Parser: parser, ScriptExec: scripts,
		Scripts: []string{bro.HTTPScript, bro.FilesScript, bro.DNSScript},
		Quiet:   true, ReassemblyBudget: reasmBudget,
	}
}

func (w *traceWL) engineConfig() bro.Config {
	if w.compiled {
		return w.config("binpac", "hilti")
	}
	return w.config("standard", "interp")
}

func (w *traceWL) prepare(o options) error {
	gen := mergedTrace(o.seed, o.scaled(traceHTTPSessions, 4), o.scaled(traceDNSTxns, 20))
	w.path = filepath.Join(o.dir, fmt.Sprintf("trace-%d-%g.pcap", o.seed, o.size))
	pkts, err := writePcap(w.path, gen)
	if err != nil {
		return err
	}
	w.pkts = pkts
	w.ids = newPacketIndex(pkts)
	d := newDigest()
	d.packets(pkts)
	w.dig = d.String()

	refCfg := w.engineConfig()
	if w.compiled {
		refCfg = w.config("binpac", "interp")
	}
	ref, err := bro.NewEngine(refCfg)
	if err != nil {
		return err
	}
	ref.ProcessTrace(pkts)
	w.refDigest = logDigest(ref)
	if w.compiled {
		std, err := bro.NewEngine(w.config("standard", "interp"))
		if err != nil {
			return err
		}
		std.ProcessTrace(pkts)
		w.table2 = map[string]float64{}
		for _, s := range logStreams {
			w.table2[s] = bro.CompareLogs(s, std.Logs.Lines(s), ref.Logs.Lines(s)).IdenticalFrac
		}
		fmt.Printf("table 2 agreement, BinPAC++ vs standard parsers: http %.4f files %.4f dns %.4f\n",
			w.table2["http"], w.table2["files"], w.table2["dns"])
	}
	return nil
}

// traceRep is one replay's raw measurements.
type traceRep struct {
	setup, wall time.Duration
	heapPeak    float64
}

func (w *traceWL) pass(o options, traced bool) (*passResult, error) {
	var ts *traceSet
	if traced {
		ts = newTraceSet()
	}
	feeder := ts.add()
	n := len(w.pkts)
	feedStart := make([]int64, n)
	feedEnd := make([]int64, n)
	start := make([]int64, n)
	done := make([]int64, n)
	epoch := time.Now()
	now := func() int64 { return int64(time.Since(epoch)) }

	var (
		reps                 []traceRep
		lat                  windows
		lag                  hist
		rt                   rtSnap
		eng                  engineLayer
		pipe                 pipelineLayer
		vmInstr, vmInv, vmFS float64
		forced               uint64
		res                  = &passResult{layer: map[string]float64{}}
	)
	if traced && !w.compiled {
		for i := 0; i < traceWorkers; i++ {
			t := ts.add()
			t.pktTotal = n
			pipe.workers = append(pipe.workers, t)
		}
	}
	begin := time.Now()
	for len(reps) < 3 || time.Since(begin).Seconds() < o.seconds {
		// Set-up: engines (script parsing, grammar and script
		// compilation) and, for trace-interp, the pipeline.
		runtime.GC()
		reg := metrics.NewRegistry()
		budget := reassembly.NewBudget(reasmBudget)
		cfg := w.engineConfig()
		cfg.SharedReassembly = budget
		cfg.Metrics = reg
		var (
			handlers []*timedEngine
			pl       *pipeline.Pipeline
		)
		newEngine := func(c bro.Config) (*timedEngine, error) {
			feeder.begin(spNewEngine, -1)
			defer feeder.end()
			e, err := bro.NewEngine(c)
			if err != nil {
				return nil, err
			}
			h := &timedEngine{Engine: e}
			handlers = append(handlers, h)
			return h, nil
		}
		t0 := time.Now()
		if w.compiled {
			if _, err := newEngine(cfg); err != nil {
				return nil, err
			}
		} else {
			// pipeline.New builds each worker's handler on this goroutine,
			// so the engine spans nest inside the pipeline's.
			feeder.begin(spPipelineNew, -1)
			var err error
			pl, err = pipeline.New(pipeline.Config{
				Workers: traceWorkers,
				Metrics: reg,
				NewHandler: func(i int) (pipeline.Handler, error) {
					c := cfg
					c.MetricsKey = strconv.Itoa(i)
					return newEngine(c)
				},
			})
			feeder.end()
			if err != nil {
				return nil, err
			}
		}
		rep := traceRep{setup: time.Since(t0)}

		clear(start)
		clear(done)
		for i, h := range handlers {
			h.epoch, h.cur = epoch, -1
			if pl != nil {
				h.ids, h.done, h.start = w.ids, done, start
				if traced {
					h.tr = pipe.workers[i]
				}
			} else {
				h.tr = feeder
				if traced {
					h.ids = w.ids // packet positions for the growth ratio
				}
			}
		}
		if feeder != nil {
			feeder.pktTotal = n
		}
		f, err := os.Open(w.path)
		if err != nil {
			return nil, err
		}
		rd, err := pcap.NewReader(f)
		if err != nil {
			f.Close()
			return nil, err
		}
		hs := newHeapSampler()
		before := snapRuntime()
		t1 := time.Now()
		i := 0
		for ; ; i++ {
			feeder.begin(spPcapRead, i)
			p, err := rd.Next()
			feeder.end()
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				return nil, err
			}
			if i >= n {
				f.Close()
				return nil, fmt.Errorf("%s holds more packets than generated", w.path)
			}
			ts := p.Time.UnixNano()
			feedStart[i] = now()
			if pl != nil {
				feeder.begin(spFeed, i)
				err = pl.Feed(ts, p.Data)
				feeder.end()
				if err != nil {
					f.Close()
					return nil, err
				}
			} else {
				handlers[0].ProcessPacket(ts, p.Data)
			}
			feedEnd[i] = now()
			if i&1023 == 0 {
				hs.sample()
			}
		}
		if pl != nil {
			feeder.begin(spClose, -1)
			pl.Close()
			feeder.end()
		} else {
			handlers[0].Finish()
		}
		rep.wall = time.Since(t1)
		rt.add(before, snapRuntime())
		f.Close()
		hs.sample()
		rep.heapPeak = hs.peakMB()
		reps = append(reps, rep)
		if i != n {
			return nil, fmt.Errorf("replayed %d packets, expected %d", i, n)
		}
		res.attempted += int64(n)

		// Outside the timed section: per-packet latency, then the gate.
		// Latency is the handler's service time: the ProcessPacket call,
		// which on the pipeline runs on a worker. Closed loop: a packet is
		// due when the previous hand-over returns, so the generator's lag
		// is its own per-packet work (reading the pcap).
		prevEnd := int64(t1.Sub(epoch))
		for j := 0; j < n; j++ {
			lag.add(feedStart[j] - prevEnd)
			prevEnd = feedEnd[j]
			if pl == nil {
				lat.add(feedEnd[j] - feedStart[j])
			} else if start[j] > 0 && done[j] > 0 {
				lat.add(done[j] - start[j])
				if traced {
					pipe.queue.add(start[j] - feedEnd[j])
				}
			}
		}
		lat.cut()
		engines := make([]*bro.Engine, len(handlers))
		for j, h := range handlers {
			engines[j] = h.Engine
		}
		if got := logDigest(engines...); got != w.refDigest {
			return res, gateErrorf("%s replay %d: logs (%d lines) differ from the reference engine's",
				w.name(), len(reps), logLines(engines...))
		}
		if pl != nil {
			ws := pl.Stats()
			pipe.add(ws)
			for _, s := range ws {
				res.failed += int64(s.Faults + s.QuarantineDropped + s.PacketsRejected + s.PacketsShed)
			}
		} else {
			st := engines[0].StatsSnapshot()
			res.failed += int64(st.Faults + st.QuarantineDropped)
		}
		eng.add(engines)
		forced += budget.Forced()
		snap := reg.Snapshot()
		vmInstr += sumSeries(snap, "hilti_vm_instructions_total")
		vmInv += sumSeries(snap, "hilti_vm_invocations_total")
		vmFS += sumSeries(snap, "hilti_vm_fiber_suspends_total")
	}

	totalPkts := float64(res.attempted)
	var pps, setup, heap []float64
	var wall time.Duration
	for _, r := range reps {
		pps = append(pps, float64(n)/r.wall.Seconds())
		setup = append(setup, r.setup.Seconds())
		heap = append(heap, r.heapPeak)
		wall += r.wall
	}
	p50, p99, err := lat.medians()
	if err != nil {
		return nil, err
	}
	res.e2e = map[string]float64{
		"pkts_per_s":     median(pps),
		"latency_p50_us": p50 / 1e3,
		"latency_p99_us": p99 / 1e3,
		"allocs_per_pkt": float64(rt.mallocs) / totalPkts,
		"heap_peak_mb":   median(heap),
		"setup_s":        median(setup),
	}
	fmt.Printf("%s: %d packets per replay, generator lag %.3f us; %s\n",
		w.name(), n, lag.mean()/1e3, describe("pkts_per_s", pps))
	if !traced {
		return res, nil
	}

	L := res.layer
	L["loadgen.lag_us"] = lag.mean() / 1e3
	L["pcap.read_ns_per_pkt"] = float64(ts.agg(spPcapRead).total) / totalPkts
	eng.metrics(L, ts, totalPkts)
	L["reassembly.forced_gaps"] = float64(forced)
	L["vm.instrs_per_pkt"] = vmInstr / totalPkts
	L["vm.invocations_per_pkt"] = vmInv / totalPkts
	L["vm.fiber_suspends_per_pkt"] = vmFS / totalPkts
	L["runtime.gc_cpu_frac"] = rt.gcFrac()
	L["runtime.gc_cycles"] = float64(rt.gcCycles)
	if w.compiled {
		for _, s := range logStreams {
			L["analyzers.table2_"+s+"_identical"] = w.table2[s]
		}
	} else {
		pipe.metrics(L, ts, wall)
	}
	frameProbes(L, w.pkts)
	if err := ts.write(filepath.Join(o.dir, "spans-"+w.name()+".tsv")); err != nil {
		return nil, err
	}
	return res, nil
}

func (w *traceWL) name() string {
	if w.compiled {
		return "trace-compiled"
	}
	return "trace-interp"
}

// sumSeries adds every labelled series of one metric family.
func sumSeries(snap map[string]float64, family string) float64 {
	var s float64
	for name, v := range snap {
		if name == family || (len(name) > len(family) && name[:len(family)] == family && name[len(family)] == '{') {
			s += v
		}
	}
	return s
}
