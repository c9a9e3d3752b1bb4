// Command perfbench is the repository's end-to-end benchmark: it drives
// the analysis stack from pcap frame to log line through its public entry
// points, on one of four seeded workloads, checks every output against an
// independent reference, and prints one JSON result line.
//
//	perfbench --workload trace-interp --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// the run measures once untraced and once with spans around every call
// into the program, and the result holds the per-layer metrics plus the
// tracing overhead. METRICS.md defines every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// options configure one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// size scales every workload's input; 1 is the benchmark, the tests
	// use a tiny fraction.
	size float64
	dir  string // scratch directory for generated inputs and span files
}

// scaled returns n scaled by the size factor, at least min.
func (o options) scaled(n, min int) int {
	v := int(math.Round(float64(n) * o.size))
	if v < min {
		return min
	}
	return v
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passResult is what one measured pass of a workload yields.
type passResult struct {
	e2e   map[string]float64 // end-to-end metrics
	layer map[string]float64 // per-layer metrics (traced passes)
	// attempted counts packets offered to the program; failed the ones
	// not analysed for a failure reason (METRICS.md).
	attempted, failed int64
}

// workload is one named benchmark workload.
type workload interface {
	// prepare synthesises the inputs from the seed and computes the
	// reference outputs. Nothing in it is timed.
	prepare(o options) error
	// pass measures for o.seconds, then checks the outputs; a mismatch
	// is a *gateError.
	pass(o options, traced bool) (*passResult, error)
	// digest fingerprints the generated inputs.
	digest() string
}

// gateError reports outputs that differ from the reference.
type gateError struct{ msg string }

func (e *gateError) Error() string { return "correctness gate: " + e.msg }

func gateErrorf(format string, args ...any) error {
	return &gateError{msg: fmt.Sprintf(format, args...)}
}

var workloads = map[string]func() workload{
	"trace-interp":     func() workload { return &traceWL{compiled: false} },
	"trace-compiled":   func() workload { return &traceWL{compiled: true} },
	"churn-wal-closed": func() workload { return &churnWL{} },
	"inline-gate":      func() workload { return &inlineWL{} },
}

// endToEnd and perLayer list every metric in output order with its
// unit; BENCHMARK.json lists the same names (a test checks it).
var endToEnd = []struct{ name, unit string }{
	{"pkts_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"allocs_per_pkt", "count"},
	{"heap_peak_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []struct{ name, unit string }{
	{"pcap.read_ns_per_pkt", "ns"},
	{"layers.decode_ns_per_pkt", "ns"},
	{"layers.allocs_per_pkt", "count"},
	{"flow.key_ns_per_pkt", "ns"},
	{"ruleplane.eval_ns_per_pkt", "ns"},
	{"ruleplane.drop_frac", "fraction"},
	{"admission.offer_ns_per_pkt", "ns"},
	{"admission.shed", "count"},
	{"admission.sampled", "count"},
	{"admission.rate_limited", "count"},
	{"admission.rejected", "count"},
	{"pipeline.feed_ns_p50", "ns"},
	{"pipeline.feed_ns_p99", "ns"},
	{"pipeline.queue_wait_us_p50", "us"},
	{"pipeline.queue_wait_us_p99", "us"},
	{"pipeline.queue_high_water", "count"},
	{"pipeline.copied_bytes_per_pkt", "bytes"},
	{"pipeline.worker_busy_frac", "fraction"},
	{"bro.process_ns_per_pkt", "ns"},
	{"bro.process_ns_p99", "ns"},
	{"bro.finish_ms", "ms"},
	{"bro.parse_ns_per_pkt", "ns"},
	{"bro.script_ns_per_pkt", "ns"},
	{"bro.glue_ns_per_pkt", "ns"},
	{"bro.other_ns_per_pkt", "ns"},
	{"bro.component_overlap_ns_per_pkt", "ns"},
	{"bro.events_per_pkt", "count"},
	{"bro.process_growth", "ratio"},
	{"reassembly.segment_ns", "ns"},
	{"reassembly.forced_gaps", "count"},
	{"analyzers.http_ns_per_kb", "ns"},
	{"analyzers.dns_ns_per_msg", "ns"},
	{"analyzers.table2_http_identical", "fraction"},
	{"analyzers.table2_files_identical", "fraction"},
	{"analyzers.table2_dns_identical", "fraction"},
	{"vm.instrs_per_pkt", "count"},
	{"vm.invocations_per_pkt", "count"},
	{"vm.fiber_suspends_per_pkt", "count"},
	{"wal.append_delta_us_per_pkt", "us"},
	{"wal.delta_bytes_per_pkt", "bytes"},
	{"wal.rebase_ms", "ms"},
	{"wal.append_delta_growth", "ratio"},
	{"firewall.match_ns_per_pkt", "ns"},
	{"bpf.filter_ns_per_pkt", "ns"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"runtime.gc_cycles", "count"},
	{"loadgen.lag_us", "us"},
	{"trace.overhead_frac", "fraction"},
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: trace-interp, trace-compiled, churn-wal-closed or inline-gate")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 for the traced run (per-layer metrics)")
	flag.StringVar(&o.dir, "dir", ".bench_build/perfbench", "directory for generated inputs and span files")
	flag.Parse()
	o.trace = traceFlag != 0
	o.size = 1
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		var ge *gateError
		if errors.As(err, &ge) && res != nil {
			printResult(res)
		}
		os.Exit(1)
	}
	printResult(res)
}

func printResult(r *result) {
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// run executes one benchmark run. On a correctness mismatch it returns
// the result with Correct false together with the error.
func run(o options) (*result, error) {
	mk, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, names)
	}
	if o.seconds <= 0 || o.size <= 0 {
		return nil, fmt.Errorf("--seconds and --size must be positive")
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	w := mk()
	if err := w.prepare(o); err != nil {
		return nil, fmt.Errorf("prepare %s: %w", o.workload, err)
	}
	fmt.Printf("workload %s seed %d input digest %s\n", o.workload, o.seed, w.digest())

	res := &result{Correct: true, Metrics: map[string]metric{}}
	base, err := w.pass(o, false)
	if base != nil {
		res.Attempted, res.Failed = base.attempted, base.failed
	}
	if err != nil {
		res.Correct = false
		return res, err
	}
	if !o.trace {
		for _, m := range endToEnd {
			v, ok := base.e2e[m.name]
			if !ok || !(v > 0) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%s: end-to-end metric %s = %v, want a positive measurement", o.workload, m.name, v)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
		return res, nil
	}

	traced, err := w.pass(o, true)
	if traced != nil {
		res.Attempted += traced.attempted
		res.Failed += traced.failed
	}
	if err != nil {
		res.Correct = false
		return res, err
	}
	// Tracing overhead as extra time per packet.
	u, t := base.e2e["pkts_per_s"], traced.e2e["pkts_per_s"]
	overhead := 0.0
	if u > 0 && t > 0 {
		overhead = u/t - 1
	}
	traced.layer["trace.overhead_frac"] = overhead
	for _, m := range perLayer {
		v := traced.layer[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: per-layer metric %s = %v", o.workload, m.name, v)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	return res, nil
}
