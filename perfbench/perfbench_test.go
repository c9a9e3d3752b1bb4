package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"
)

func TestMedianAndQuartiles(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(xs, n=4), the definitions of the spread check.
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{3.5, 1, 2}, 2, 1, 3.5},
		{[]float64{5, 1}, 3, 0, 6},
		{[]float64{4, 4, 4, 4}, 4, 4, 4},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	quartiles(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("helpers reordered their input: %v", xs)
	}
}

// nearestRank is the exact q-quantile of xs by the nearest-rank rule.
func nearestRank(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Ceil(q*float64(len(s))))-1]
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{999, 0.99, false},
		{1000, 0.99, true},
		{19, 0.50, false},
		{20, 0.50, true},
		{99, 0.90, false},
		{100, 0.90, true},
	} {
		var h hist
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // reversed: order must not matter
			h.add(int64(xs[i]))
		}
		v, err := h.quantile(c.q)
		if (err == nil) != c.ok {
			t.Errorf("quantile(n=%d, q=%v): err=%v, want ok=%v", c.n, c.q, err, c.ok)
			continue
		}
		if want := nearestRank(xs, c.q); c.ok && math.Abs(v-want) > want/histSub {
			t.Errorf("quantile(n=%d, q=%v) = %v, want %v", c.n, c.q, v, want)
		}
	}
}

func TestHistQuantileWithinResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h hist
	xs := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := int64(math.Exp(rng.Float64()*16)) + int64(rng.Intn(50))
		h.add(v)
		xs = append(xs, float64(v))
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := nearestRank(xs, q)
		got, err := h.quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(got-exact) / exact; rel > 1.0/histSub {
			t.Errorf("q%v: hist %v, exact %v (relative error %.4f)", q, got, exact, rel)
		}
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	if m := h.mean(); math.Abs(m-sum/float64(len(xs))) > 1e-6*m {
		t.Errorf("hist mean %v, want %v", m, sum/float64(len(xs)))
	}
}

func TestWindowsReportMedianWindow(t *testing.T) {
	var w windows
	for i := 0; i < 500; i++ { // too few for a window
		w.add(5)
	}
	w.cut()
	if _, _, err := w.medians(); err == nil {
		t.Fatal("medians with no full window did not fail")
	}
	for _, base := range []int64{100, 300, 200} {
		for i := 0; i < windowSamples; i++ {
			w.add(base)
		}
		w.cut()
	}
	p50, p99, err := w.medians()
	if err != nil || p50 < 199 || p50 > 201 || p99 < 199 || p99 > 201 {
		t.Errorf("medians = %v, %v, %v; want the 200 window", p50, p99, err)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spin := func(d time.Duration) {
		for end := time.Now().Add(d); time.Now().Before(end); {
		}
	}
	ts := newTraceSet()
	tr := ts.add()
	tr.begin(spPath, 0) // parent
	spin(time.Millisecond)
	tr.begin(spFlowKey, 0)
	spin(2 * time.Millisecond)
	tr.end()
	tr.begin(spFirewall, 0)
	tr.begin(spPlaneEval, 0) // grandchild: covered by its parent only
	spin(time.Millisecond)
	tr.end()
	tr.end()
	tr.end()

	spans := tr.spans
	if len(spans) != 4 {
		t.Fatalf("kept %d spans, want 4", len(spans))
	}
	self := selfTimes(spans)
	dur := func(i int) int64 { return spans[i].end - spans[i].start }
	if want := dur(0) - dur(1) - dur(2); self[0] != want {
		t.Errorf("parent self %d, want duration minus children %d", self[0], want)
	}
	if want := dur(2) - dur(3); self[2] != want {
		t.Errorf("middle self %d, want %d", self[2], want)
	}
	if self[1] != dur(1) || self[3] != dur(3) {
		t.Errorf("leaf self times %d/%d differ from durations %d/%d", self[1], self[3], dur(1), dur(3))
	}
	if self[0] < int64(900*time.Microsecond) || self[0] > dur(0)-int64(2*time.Millisecond) {
		t.Errorf("parent self %v not about the 1ms it spent outside children", time.Duration(self[0]))
	}
	for i, k := range []spanKind{spPath, spFlowKey, spFirewall, spPlaneEval} {
		if a := tr.agg[k]; a.n != 1 || a.total != dur(i) {
			t.Errorf("%s aggregate n=%d total=%d, want 1/%d", spanNames[k], a.n, a.total, dur(i))
		}
	}
	if spans[1].parent != 0 || spans[3].parent != 2 || spans[0].parent != -1 {
		t.Errorf("parents %d %d %d", spans[0].parent, spans[1].parent, spans[3].parent)
	}
}

func TestGrowthRatio(t *testing.T) {
	tr := newTracer(time.Now(), 0)
	tr.pktTotal = 100
	for i := 0; i < 100; i++ {
		tr.begin(spProcess, i)
		tr.stack[len(tr.stack)-1].start -= int64(time.Millisecond) * int64(1+i/10) // tenth k lasts k+1 ms
		tr.end()
	}
	if g := tr.agg[spProcess].growth(); g < 9 || g > 11 {
		t.Errorf("growth %v, want about 10", g)
	}
}

// tinyOptions runs a workload at a small fraction of its benchmark size.
func tinyOptions(t *testing.T, name string, seed int64) options {
	return options{workload: name, seed: seed, seconds: 0.3, size: 0.05, dir: t.TempDir()}
}

func TestInputDigestFollowsSeed(t *testing.T) {
	for name, mk := range workloads {
		digestOf := func(seed int64) string {
			w := mk()
			if err := w.prepare(tinyOptions(t, name, seed)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return w.digest()
		}
		a, b, c := digestOf(1), digestOf(1), digestOf(2)
		if a != b {
			t.Errorf("%s: seed 1 gave two digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", name, a)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				o := tinyOptions(t, name, 3)
				o.trace = traced
				res, err := run(o)
				if err != nil {
					t.Fatalf("trace=%v: %v", traced, err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("trace=%v: result %+v", traced, res)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("trace=%v: metric %s = %+v", traced, m.name, got)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v, must be positive", m.name, got.Value)
					}
				}
			}
		})
	}
}

func TestGateCatchesWrongReference(t *testing.T) {
	w := &traceWL{}
	o := tinyOptions(t, "trace-interp", 1)
	if err := w.prepare(o); err != nil {
		t.Fatal(err)
	}
	w.refDigest = "not the reference"
	_, err := w.pass(o, false)
	var ge *gateError
	if !errors.As(err, &ge) {
		t.Fatalf("pass against a wrong reference returned %v, want a gate error", err)
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }               `json:"workloads"`
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok || listed[w.Name] {
			t.Errorf("BENCHMARK.json workload %s is not implemented or listed twice", w.Name)
		}
		listed[w.Name] = true
	}
	if len(listed) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, want all %d", len(doc.Workloads), len(workloads))
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, benchmark %s/%s",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
