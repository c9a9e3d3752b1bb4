package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p99 needs at least 1000 samples, a p50 at least 20.
const minTail = 10

// median returns the middle value of xs (the mean of the two middle
// values for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), which is
// what the spread check of the benchmark's contract uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// Python's exclusive method, in its exact integer form.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// tailCheck reports whether n samples support the q-quantile.
func tailCheck(n uint64, q float64) error {
	if q <= 0 || q >= 1 {
		return fmt.Errorf("percentile %v out of (0,1)", q)
	}
	if float64(n)*(1-q) < minTail-1e-9 { // 1e-9: 100*(1-0.9) is 9.999…
		return fmt.Errorf("p%g needs %d samples beyond it, have %d samples in all",
			q*100, minTail, n)
	}
	return nil
}

// describe summarises one metric's per-replay samples for the run's log,
// so a reader can see how steady the replays of one run were.
func describe(name string, xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%s over %d replays: median %.4g, quartiles %.4g..%.4g", name, len(xs), median(xs), q1, q3)
}

// rank is the 0-based nearest-rank index of the q-quantile of n samples.
func rank(n uint64, q float64) uint64 {
	r := uint64(math.Ceil(q*float64(n))) - 1
	if q*float64(n) < 1 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// hist is a log-linear histogram of non-negative integer samples (ns):
// each power-of-two range is split into histSub equal buckets, so a
// quantile read from it is within 1/histSub of the exact value. Memory is
// fixed, which keeps the benchmark's own heap out of the heap metric even
// for runs of millions of packets.
type hist struct {
	counts [64 * histSub]uint64
	n      uint64
	sum    float64
	max    int64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 - histSubBits // v >> e is in [histSub, 2*histSub)
	return (e+1)*histSub + int(uint64(v)>>uint(e)) - histSub
}

// histLow returns the smallest value that lands in bucket i, and the
// bucket's width.
func histLow(i int) (lo, width float64) {
	if i < 2*histSub {
		if i < histSub {
			return float64(i), 1
		}
	}
	e := i/histSub - 1
	m := i%histSub + histSub
	return float64(uint64(m) << uint(e)), float64(uint64(1) << uint(e))
}

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(v)]++
	h.n++
	h.sum += float64(v)
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// quantile returns the nearest-rank q-quantile, interpolated linearly
// within its bucket by rank (exact below histSub), and refuses a
// percentile with fewer than minTail samples beyond it.
func (h *hist) quantile(q float64) (float64, error) {
	if err := tailCheck(h.n, q); err != nil {
		return 0, err
	}
	r := rank(h.n, q)
	var seen uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+c > r {
			lo, w := histLow(i)
			v := lo + w*float64(r-seen)/float64(c)
			if v > float64(h.max) {
				v = float64(h.max)
			}
			return v, nil
		}
		seen += c
	}
	return float64(h.max), nil
}

// windowSamples is how many samples a latency window needs: enough for a
// p99 with ten samples beyond it.
const windowSamples = 1000

// windows reports latency percentiles robustly against bursts of noise
// from other processes: samples are cut into consecutive windows of at
// least windowSamples, each window gets its own p50 and p99, and the run
// reports the median window's.
type windows struct {
	cur      hist
	n        uint64 // samples in all windows
	p50, p99 []float64
}

func (w *windows) add(v int64) {
	w.cur.add(v)
	w.n++
}

// cut ends the current window if it holds enough samples; callers cut at
// natural boundaries (every replay).
func (w *windows) cut() {
	if w.cur.n < windowSamples {
		return
	}
	p50, err50 := w.cur.quantile(0.50)
	p99, err99 := w.cur.quantile(0.99)
	if err50 == nil && err99 == nil {
		w.p50 = append(w.p50, p50)
		w.p99 = append(w.p99, p99)
	}
	w.cur = hist{}
}

// medians returns the median window's p50 and p99; samples after the
// last cut are left out.
func (w *windows) medians() (p50, p99 float64, err error) {
	if len(w.p99) == 0 {
		return 0, 0, fmt.Errorf("latency: %d samples, no window of %d", w.n, windowSamples)
	}
	return median(w.p50), median(w.p99), nil
}
