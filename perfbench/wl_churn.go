package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"hilti/internal/bro"
	"hilti/internal/pkt/pcap"
	"hilti/internal/pkt/pipeline"
	"hilti/internal/pkt/reassembly"
	"hilti/internal/rt/admission"
	"hilti/internal/rt/metrics"
	"hilti/internal/rt/ruleplane"
)

// churnWL is a live sensor with crash-only persistence: a steady soak
// stream of thousands of concurrent short HTTP/DNS flows through a
// 2-worker pipeline in WAL mode behind an admission controller, an
// ingress rule plane and a metrics registry. It replays a fixed-length
// stream as fast as backpressure allows, on a fresh stack each time, and
// times each packet from its first handler call (ProcessPacket) until its
// last one (AppendDelta) returns.
type churnWL struct {
	pkts      []pcap.Packet
	ids       *packetIndex
	progs     []ruleplane.Program
	dig       string
	refDigest string
}

const (
	// churnRate is the stream's trace-time rate in packets per second;
	// the admission controller is sized for it. Changing it changes the
	// workload.
	churnRate     = 500
	churnFlows    = 2000
	churnACLRules = 10_000
	churnWorkers  = 2
	// churnTrace is the trace-time length of the stream.
	churnTrace = 10 * time.Second
)

// admissionConfig sizes the overload controller so a steady stream at
// rate stays healthy: the capacity estimate and buckets sit well above it.
func admissionConfig(rate float64) admission.Config {
	return admission.Config{
		TargetRate: rate * 4,
		GlobalRate: int64(rate) * 20, GlobalBurst: int64(rate) * 20,
		PrefixRate: int64(rate) * 4, PrefixBurst: int64(rate) * 4,
	}
}

func (w *churnWL) digest() string { return w.dig }

func churnEngineConfig() bro.Config {
	return bro.Config{
		Parser: "standard", ScriptExec: "interp",
		Scripts: []string{bro.HTTPScript, bro.FilesScript, bro.DNSScript},
		Quiet:   true, ReassemblyBudget: reasmBudget,
	}
}

func (w *churnWL) prepare(o options) error {
	w.pkts = soakStream(o.seed, churnTrace, churnRate, o.scaled(churnFlows, 20))
	if len(w.pkts) == 0 {
		return fmt.Errorf("empty soak stream")
	}
	w.ids = newPacketIndex(w.pkts)
	w.progs = []ruleplane.Program{aclProgram(o.seed, o.scaled(churnACLRules, 50))}
	d := newDigest()
	d.packets(w.pkts)
	for _, p := range w.progs {
		d.program(p)
	}
	w.dig = d.String()

	// Reference: one engine, no WAL, no admission, hosting the same rule
	// programs itself.
	plane, err := ruleplane.New(w.progs)
	if err != nil {
		return err
	}
	cfg := churnEngineConfig()
	cfg.RulePlane = plane
	ref, err := bro.NewEngine(cfg)
	if err != nil {
		return err
	}
	ref.ProcessTrace(w.pkts)
	w.refDigest = logDigest(ref)
	return nil
}

// churnStack is one built sensor.
type churnStack struct {
	pl       *pipeline.Pipeline
	adm      *admission.Controller
	budget   *reassembly.Budget
	reg      *metrics.Registry
	handlers []*timedEngine
}

// build assembles one sensor, recording set-up spans on tr (nil-safe);
// pipeline.New builds the workers' engines on this goroutine, so their
// spans nest inside its span.
func (w *churnWL) build(tr *tracer) (*churnStack, error) {
	s := &churnStack{reg: metrics.NewRegistry(), budget: reassembly.NewBudget(reasmBudget)}
	tr.begin(spPlaneNew, -1)
	plane, err := ruleplane.New(w.progs)
	tr.end()
	if err != nil {
		return nil, err
	}
	ac := admissionConfig(churnRate)
	ac.Metrics = s.reg
	s.adm = admission.NewController(ac)
	cfg := churnEngineConfig()
	cfg.SharedReassembly = s.budget
	cfg.Metrics = s.reg
	tr.begin(spPipelineNew, -1)
	defer tr.end()
	s.pl, err = pipeline.New(pipeline.Config{
		Workers:   churnWorkers,
		MaxFlows:  churnFlows * 8,
		WAL:       true,
		Admission: s.adm,
		RulePlane: plane,
		Metrics:   s.reg,
		NewHandler: func(i int) (pipeline.Handler, error) {
			c := cfg
			c.MetricsKey = strconv.Itoa(i)
			tr.begin(spNewEngine, -1)
			e, err := bro.NewEngine(c)
			tr.end()
			if err != nil {
				return nil, err
			}
			h := &timedEngine{Engine: e}
			s.handlers = append(s.handlers, h)
			return h, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (w *churnWL) pass(o options, traced bool) (*passResult, error) {
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

	var (
		setups, pps, heaps  []float64
		lat                 windows
		lag                 hist
		rt                  rtSnap
		wall                time.Duration
		analysed            uint64
		planeDropped        uint64
		led                 admission.Ledger
		eng                 engineLayer
		pipe                pipelineLayer
		deltaBytes, rebases int64
		forced              uint64
		res                 = &passResult{layer: map[string]float64{}}
	)
	if traced {
		for i := 0; i < churnWorkers; i++ {
			t := ts.add()
			t.pktTotal = n
			pipe.workers = append(pipe.workers, t)
		}
	}
	begin := time.Now()
	for round := 0; round < 3 || time.Since(begin).Seconds() < o.seconds; round++ {
		runtime.GC()
		t0 := time.Now()
		st, err := w.build(feeder)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		clear(start)
		clear(done)
		for i, h := range st.handlers {
			h.epoch, h.cur = epoch, -1
			h.ids, h.done, h.start = w.ids, done, start
			if traced {
				h.tr = pipe.workers[i]
			}
		}
		if feeder != nil {
			feeder.pktTotal = n
		}

		hs := newHeapSampler()
		runtime.GC()
		before := snapRuntime()
		t1 := int64(time.Since(epoch))
		for i := range w.pkts {
			p := &w.pkts[i]
			feedStart[i] = int64(time.Since(epoch))
			feeder.begin(spFeed, i)
			err := st.pl.Feed(p.Time.UnixNano(), p.Data)
			feeder.end()
			feedEnd[i] = int64(time.Since(epoch))
			if err != nil {
				return nil, err
			}
			if i&255 == 0 {
				hs.sample()
			}
		}
		feeder.begin(spClose, -1)
		st.pl.Close()
		feeder.end()
		el := time.Duration(int64(time.Since(epoch)) - t1)
		wall += el
		rt.add(before, snapRuntime())
		hs.sample()
		heaps = append(heaps, hs.peakMB())

		// Outside the timed section: latency, failures, then the gate.
		// A packet is due when the previous hand-over returns, so the
		// generator's lag is the loop's own bookkeeping.
		prevEnd := t1
		for i := 0; i < n; i++ {
			lag.add(feedStart[i] - prevEnd)
			prevEnd = feedEnd[i]
			if start[i] > 0 && done[i] > 0 {
				lat.add(done[i] - start[i])
				if traced {
					pipe.queue.add(start[i] - feedEnd[i])
				}
			}
		}
		lat.cut()
		l := st.adm.LedgerSnapshot()
		var roundAnalysed, faults, ckptFailures uint64
		ws := st.pl.Stats()
		pipe.add(ws)
		for _, s := range ws {
			roundAnalysed += s.Packets
			faults += s.Faults
			ckptFailures += s.CheckpointFailures
		}
		analysed += roundAnalysed
		pps = append(pps, float64(roundAnalysed)/el.Seconds())
		planeDropped += st.pl.PlaneDropped()
		res.attempted += int64(n)
		// The ledger's Rejected already counts quarantine drops and
		// flow-cap rejects (the pipeline notes both as rejected), so the
		// workers' QuarantineDropped and PacketsRejected are not added
		// again.
		res.failed += int64(l.Shed + l.Sampled + l.RateLimited + l.Rejected + faults)
		led.Shed += l.Shed
		led.Sampled += l.Sampled
		led.RateLimited += l.RateLimited
		led.Rejected += l.Rejected
		engines := make([]*bro.Engine, len(st.handlers))
		var appends int64
		for i, h := range st.handlers {
			engines[i] = h.Engine
			deltaBytes += h.deltaBytes
			rebases += h.rebases
			appends += h.appends
		}
		if !l.Balanced() {
			return res, gateErrorf("admission ledger does not balance: %+v", l)
		}
		// Every analysed or faulted packet must leave a delta in the WAL:
		// a failed AppendDelta opens a gap that skips later records, and
		// only CheckpointFailures would show it.
		if ckptFailures != 0 || appends != int64(roundAnalysed+faults) {
			return res, gateErrorf("%s: %d checkpoint failures, %d AppendDelta calls for %d analysed and %d faulted packets",
				w.name(), ckptFailures, appends, roundAnalysed, faults)
		}
		if got := logDigest(engines...); got != w.refDigest {
			return res, gateErrorf("%s: logs (%d lines) differ from the single-engine run without WAL",
				w.name(), logLines(engines...))
		}
		eng.add(engines)
		forced += st.budget.Forced()
	}

	p50, p99, err := lat.medians()
	if err != nil {
		return nil, err
	}
	res.e2e = map[string]float64{
		"pkts_per_s":     median(pps),
		"latency_p50_us": p50 / 1e3,
		"latency_p99_us": p99 / 1e3,
		"allocs_per_pkt": float64(rt.mallocs) / float64(res.attempted),
		"heap_peak_mb":   median(heaps),
		"setup_s":        median(setups),
	}
	fmt.Printf("%s: %d packets per replay, %d analysed, %d dropped by the rule plane, generator lag %.3f us; %s\n",
		w.name(), n, analysed, planeDropped, lag.mean()/1e3, describe("pkts_per_s", pps))
	if !traced {
		return res, nil
	}

	L := res.layer
	L["loadgen.lag_us"] = lag.mean() / 1e3
	ad, ck, rb := ts.agg(spAppendDelta), ts.agg(spCheckpoint), ts.agg(spResetBase)
	pipe.metrics(L, ts, wall)
	eng.metrics(L, ts, float64(analysed))
	if ad.n > 0 {
		L["wal.append_delta_us_per_pkt"] = float64(ad.total) / float64(ad.n) / 1e3
		L["wal.delta_bytes_per_pkt"] = float64(deltaBytes) / float64(ad.n)
		L["wal.append_delta_growth"] = ad.growth()
	}
	if rebases > 0 {
		L["wal.rebase_ms"] = float64(ck.total+rb.total) / float64(rebases) / 1e6
	}
	L["admission.shed"] = float64(led.Shed)
	L["admission.sampled"] = float64(led.Sampled)
	L["admission.rate_limited"] = float64(led.RateLimited)
	L["admission.rejected"] = float64(led.Rejected)
	L["ruleplane.drop_frac"] = float64(planeDropped) / float64(res.attempted)
	if L["ruleplane.eval_ns_per_pkt"], err = planeProbe(w.pkts, w.progs); err != nil {
		return nil, err
	}
	L["reassembly.forced_gaps"] = float64(forced)
	L["runtime.gc_cpu_frac"] = rt.gcFrac()
	L["runtime.gc_cycles"] = float64(rt.gcCycles)
	frameProbes(L, w.pkts)
	if err := ts.write(filepath.Join(o.dir, "spans-"+w.name()+".tsv")); err != nil {
		return nil, err
	}
	return res, nil
}

func (w *churnWL) name() string { return "churn-wal-closed" }
