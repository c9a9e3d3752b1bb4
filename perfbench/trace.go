package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// The traced run records one span around every call the benchmark makes
// into the program's public entry points. A tracer belongs to one
// goroutine (the feeder, a pipeline worker, or the inline loop), so spans
// on it nest strictly and need no locking; a span's self time is its
// duration minus the time its child spans cover. Spans on different
// goroutines are linked by packet id, never by parent: queue wait is the
// gap between a packet's pipeline.Feed span on the feeder and its first
// handler span on a worker.

type spanKind uint8

const (
	spPcapRead spanKind = iota
	spFeed
	spClose
	spProcess
	spAppendDelta
	spCheckpoint
	spResetBase
	spFinish
	spPath
	spFlowKey
	spPlaneEval
	spBPFFilter
	spFirewall
	spPipelineNew
	spNewEngine
	spPlaneNew
	spFirewallNew
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spPcapRead:    "pcap.Reader.Next",
	spFeed:        "pipeline.Feed",
	spClose:       "pipeline.Close",
	spProcess:     "bro.Engine.ProcessPacket",
	spAppendDelta: "bro.Engine.AppendDelta",
	spCheckpoint:  "bro.Engine.Checkpoint",
	spResetBase:   "bro.Engine.ResetDeltaBase",
	spFinish:      "bro.Engine.Finish",
	spPath:        "inline.path",
	spFlowKey:     "flow.FromFrame",
	spPlaneEval:   "ruleplane.Plane.Eval",
	spBPFFilter:   "vm.Exec.CallFn(bpf)",
	spFirewall:    "firewall.Firewall.Match",
	spPipelineNew: "pipeline.New",
	spNewEngine:   "bro.NewEngine",
	spPlaneNew:    "ruleplane.New",
	spFirewallNew: "firewall.New",
}

// span is one recorded interval; times are ns since the run's epoch.
type span struct {
	start, end int64
	parent     int32 // index of the enclosing span on the same tracer, -1 at the root
	pkt        int32 // packet id in feed order, -1 when not per-packet
	kind       spanKind
}

// A pass keeps at most maxKeptSpans spans for the span file, at most
// maxTracerSpans of them from one tracer; per-kind aggregates keep
// counting past the caps, so the metrics cover every span while the
// memory held stays small.
const (
	maxKeptSpans   = 1 << 19
	maxTracerSpans = 1 << 17
)

// spanAgg is a per-kind running aggregate over every span of the kind.
type spanAgg struct {
	n     uint64
	total int64 // sum of durations
	dur   hist
	// Per-tenth sums of durations by packet position, for growth ratios.
	tenthSum [10]int64
	tenthN   [10]int64
}

type openSpan struct {
	kind  spanKind
	start int64
	kept  int32 // index into spans, -1 when over the cap
	pkt   int32
}

type tracer struct {
	epoch time.Time
	spans []span
	stack []openSpan
	agg   [numSpanKinds]spanAgg
	keep  int // how many spans this tracer may keep
	// pktTotal is the number of packets in the stream being replayed,
	// used to place a packet id into its tenth (0 = no growth tracking).
	pktTotal int
}

func newTracer(epoch time.Time, keep int) *tracer {
	return &tracer{epoch: epoch, keep: keep}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span; every begin is matched by one end on the same
// tracer. A nil tracer records nothing.
func (t *tracer) begin(k spanKind, pkt int) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].kept
	}
	o := openSpan{kind: k, kept: -1, pkt: int32(pkt)}
	if len(t.spans) < t.keep {
		o.kept = int32(len(t.spans))
		t.spans = append(t.spans, span{parent: parent, pkt: int32(pkt), kind: k})
	}
	o.start = t.now()
	t.stack = append(t.stack, o)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() int64 {
	if t == nil {
		return 0
	}
	end := t.now()
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	dur := end - o.start
	if o.kept >= 0 {
		t.spans[o.kept].start, t.spans[o.kept].end = o.start, end
	}
	a := &t.agg[o.kind]
	a.n++
	a.total += dur
	a.dur.add(dur)
	if t.pktTotal > 0 && o.pkt >= 0 && int(o.pkt) < t.pktTotal {
		i := int(o.pkt) * 10 / t.pktTotal
		a.tenthSum[i] += dur
		a.tenthN[i]++
	}
	return dur
}

// selfTimes returns each kept span's self time: its duration minus the
// time its direct children cover (children on one tracer never overlap).
func selfTimes(spans []span) []int64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.end - s.start - child[i]
	}
	return out
}

// traceSet is every tracer of one measured pass, merged at the end.
type traceSet struct {
	epoch   time.Time
	tracers []*tracer
	unkept  int // spans the next tracers may still keep
}

func newTraceSet() *traceSet { return &traceSet{epoch: time.Now(), unkept: maxKeptSpans} }

// add starts a tracer for one more goroutine. Call it from the goroutine
// that owns the set, before the tracer's goroutine uses it.
func (ts *traceSet) add() *tracer {
	if ts == nil {
		return nil
	}
	keep := min(maxTracerSpans, ts.unkept)
	ts.unkept -= keep
	t := newTracer(ts.epoch, keep)
	ts.tracers = append(ts.tracers, t)
	return t
}

// agg merges one kind's aggregate across all tracers.
func (ts *traceSet) agg(k spanKind) *spanAgg {
	var out spanAgg
	for _, t := range ts.tracers {
		a := &t.agg[k]
		out.n += a.n
		out.total += a.total
		out.dur.merge(&a.dur)
		for i := range a.tenthSum {
			out.tenthSum[i] += a.tenthSum[i]
			out.tenthN[i] += a.tenthN[i]
		}
	}
	return &out
}

// growth is the mean span duration in the last tenth of packet positions
// over the mean in the first tenth (0 when either is empty).
func (a *spanAgg) growth() float64 {
	if a.tenthN[0] == 0 || a.tenthN[9] == 0 || a.tenthSum[0] == 0 {
		return 0
	}
	first := float64(a.tenthSum[0]) / float64(a.tenthN[0])
	last := float64(a.tenthSum[9]) / float64(a.tenthN[9])
	return last / first
}

// write saves the kept spans as tab-separated lines: tracer, index,
// name, start ns, end ns, parent index, packet id, self ns.
func (ts *traceSet) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintln(w, "tracer\tindex\tname\tstart_ns\tend_ns\tparent\tpkt\tself_ns")
	for ti, t := range ts.tracers {
		self := selfTimes(t.spans)
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\n",
				ti, i, spanNames[s.kind], s.start, s.end, s.parent, s.pkt, self[i])
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
