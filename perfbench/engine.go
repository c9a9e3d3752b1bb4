package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"sort"
	"time"

	"hilti/internal/bro"
	"hilti/internal/pkt/pipeline"
)

// logStreams are the engine's log streams, compared in this order.
var logStreams = []string{"http", "files", "dns"}

// timedEngine is the pipeline handler of the benchmark: it embeds the
// engine, so the pipeline still finds every optional interface the engine
// implements (WAL delta checkpoints, flow zapping), and wraps the calls
// the pipeline makes with the benchmark's clock. All methods run on the
// owning worker goroutine.
type timedEngine struct {
	*bro.Engine
	tr    *tracer      // nil outside traced passes
	ids   *packetIndex // frame -> packet id; nil when no per-packet timing is needed
	epoch time.Time
	// Per packet id, ns since epoch: when its first handler call began
	// (traced passes) and when its last handler call returned.
	start, done []int64
	cur         int // id of the packet in progress, -1 when unknown

	appends    int64 // AppendDelta calls
	deltaBytes int64 // bytes of AppendDelta records
	rebases    int64 // ResetDeltaBase calls
}

func (h *timedEngine) now() int64 { return int64(time.Since(h.epoch)) }

func (h *timedEngine) ProcessPacket(tsNs int64, frame []byte) {
	h.cur = h.ids.lookup(tsNs, frame)
	if h.cur >= 0 && h.start != nil {
		h.start[h.cur] = h.now()
	}
	h.tr.begin(spProcess, h.cur)
	h.Engine.ProcessPacket(tsNs, frame)
	h.tr.end()
	h.markDone()
}

func (h *timedEngine) markDone() {
	if h.cur >= 0 && h.done != nil {
		h.done[h.cur] = h.now()
	}
}

func (h *timedEngine) AppendDelta() ([]byte, error) {
	h.tr.begin(spAppendDelta, h.cur)
	d, err := h.Engine.AppendDelta()
	h.tr.end()
	h.appends++
	h.deltaBytes += int64(len(d))
	h.markDone()
	return d, err
}

func (h *timedEngine) Checkpoint(w io.Writer) error {
	h.tr.begin(spCheckpoint, -1)
	defer h.tr.end()
	return h.Engine.Checkpoint(w)
}

func (h *timedEngine) ResetDeltaBase() error {
	h.tr.begin(spResetBase, -1)
	defer h.tr.end()
	h.rebases++
	return h.Engine.ResetDeltaBase()
}

func (h *timedEngine) Finish() {
	h.tr.begin(spFinish, -1)
	h.Engine.Finish()
	h.tr.end()
}

// logDigest fingerprints the engines' logs, stream by stream, with each
// stream's lines from all engines merged and sorted: flow sharding
// partitions the lines but must not change them.
func logDigest(engines ...*bro.Engine) string {
	h := sha256.New()
	for _, s := range logStreams {
		var lines []string
		for _, e := range engines {
			lines = append(lines, e.Logs.Lines(s)...)
		}
		sort.Strings(lines)
		io.WriteString(h, s+"\x00")
		for _, l := range lines {
			io.WriteString(h, l+"\n")
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// logLines counts the engines' log lines over all streams.
func logLines(engines ...*bro.Engine) int {
	n := 0
	for _, e := range engines {
		for _, s := range logStreams {
			n += len(e.Logs.Lines(s))
		}
	}
	return n
}

// engineLayer accumulates the engines' component profilers over a pass.
type engineLayer struct{ stats bro.Stats }

func (e *engineLayer) add(engines []*bro.Engine) {
	for _, en := range engines {
		st := en.StatsSnapshot()
		e.stats.Parsing += st.Parsing
		e.stats.Script += st.Script
		e.stats.Glue += st.Glue
		e.stats.Other += st.Other
		e.stats.Events += st.Events
	}
}

// metrics fills the bro.* per-layer metrics: the handler spans, the
// Figure 9/10 split as the engine reports it, and the component
// profilers against the handler time measured around the same calls. The
// overlap is reported unclamped, so a double count in the profilers shows
// as a positive number.
func (e *engineLayer) metrics(L map[string]float64, ts *traceSet, pkts float64) {
	pr, fin := ts.agg(spProcess), ts.agg(spFinish)
	L["bro.process_ns_per_pkt"] = float64(pr.total) / pkts
	L["bro.process_ns_p99"] = quantileOr0(&pr.dur, 0.99)
	L["bro.process_growth"] = pr.growth()
	if fin.n > 0 {
		L["bro.finish_ms"] = float64(fin.total) / float64(fin.n) / 1e6
	}
	handlerNs := pr.total + fin.total
	st := &e.stats
	comp := int64(st.Parsing + st.Script + st.Glue)
	L["bro.parse_ns_per_pkt"] = float64(st.Parsing) / pkts
	L["bro.script_ns_per_pkt"] = float64(st.Script) / pkts
	L["bro.glue_ns_per_pkt"] = float64(st.Glue) / pkts
	L["bro.other_ns_per_pkt"] = float64(st.Other) / pkts
	L["bro.component_overlap_ns_per_pkt"] = float64(comp-handlerNs) / pkts
	L["bro.events_per_pkt"] = float64(st.Events) / pkts
}

// pipelineLayer accumulates what the pipeline reports over a pass.
type pipelineLayer struct {
	queue             hist // from Feed return to the first handler call
	highWater         int
	copied, delivered uint64
	workers           []*tracer // one per worker slot, reused by every replay
}

func (p *pipelineLayer) add(stats []pipeline.WorkerStats) {
	for _, s := range stats {
		p.highWater = max(p.highWater, s.HighWater)
		p.copied += s.CopiedBytes
		p.delivered += s.Packets
	}
}

// metrics fills the pipeline.* per-layer metrics; wall is the time the
// workers were measured over.
func (p *pipelineLayer) metrics(L map[string]float64, ts *traceSet, wall time.Duration) {
	feed := ts.agg(spFeed)
	L["pipeline.feed_ns_p50"] = quantileOr0(&feed.dur, 0.50)
	L["pipeline.feed_ns_p99"] = quantileOr0(&feed.dur, 0.99)
	L["pipeline.queue_wait_us_p50"] = quantileOr0(&p.queue, 0.50) / 1e3
	L["pipeline.queue_wait_us_p99"] = quantileOr0(&p.queue, 0.99) / 1e3
	L["pipeline.queue_high_water"] = float64(p.highWater)
	if p.delivered > 0 {
		L["pipeline.copied_bytes_per_pkt"] = float64(p.copied) / float64(p.delivered)
	}
	// Every span on a worker's tracer is a handler call, none nested.
	var busy int64
	for _, t := range p.workers {
		for k := range t.agg {
			busy += t.agg[k].total
		}
	}
	if wall > 0 && len(p.workers) > 0 {
		L["pipeline.worker_busy_frac"] = float64(busy) / (float64(len(p.workers)) * float64(wall))
	}
}

func quantileOr0(h *hist, q float64) float64 {
	v, err := h.quantile(q)
	if err != nil {
		return 0
	}
	return v
}
