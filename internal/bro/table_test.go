package bro

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hilti/internal/rt/snapshot"
)

// refTable is the reference model for TableVal expiry: the full scan
// over every entry on each access that the touch heap replaced.
type refTable struct {
	interval int64
	onRead   bool
	entries  map[string]*refEntry
	order    []*refEntry
}

type refEntry struct {
	ks      string
	yield   Val
	touched int64
	deleted bool
}

func (r *refTable) expire(now int64) {
	if r.interval <= 0 {
		return
	}
	for ks, e := range r.entries {
		if now-e.touched >= r.interval {
			e.deleted = true
			delete(r.entries, ks)
		}
	}
}

func (r *refTable) put(now int64, ks string, yield Val) {
	r.expire(now)
	if e, ok := r.entries[ks]; ok {
		e.yield, e.touched = yield, now
		return
	}
	e := &refEntry{ks: ks, yield: yield, touched: now}
	r.entries[ks] = e
	r.order = append(r.order, e)
}

func (r *refTable) get(now int64, ks string) (Val, bool) {
	r.expire(now)
	e, ok := r.entries[ks]
	if !ok {
		return nil, false
	}
	if r.onRead {
		e.touched = now
	}
	return e.yield, true
}

func (r *refTable) del(ks string) {
	if e, ok := r.entries[ks]; ok {
		e.deleted = true
		delete(r.entries, ks)
	}
}

// dump renders the live entries in insertion order with their touch
// times.
func (r *refTable) dump() string {
	var b bytes.Buffer
	for _, e := range r.order {
		if !e.deleted {
			fmt.Fprintf(&b, "%q=%s@%d ", e.ks, e.yield.Render(), e.touched)
		}
	}
	return b.String()
}

func dumpTable(t *TableVal) string {
	var b bytes.Buffer
	t.Each(func(key []Val, yield Val) bool {
		en := t.entries[KeyString(key)]
		fmt.Fprintf(&b, "%q=%s@%d ", en.keyStr, yield.Render(), en.touched)
		return true
	})
	return b.String()
}

// checkHeap verifies the touch heap holds exactly the live entries, each
// at its recorded index with due <= touched, in heap order.
func checkHeap(t *testing.T, tv *TableVal) {
	t.Helper()
	if len(tv.byTouch) != len(tv.entries) {
		t.Fatalf("heap holds %d entries, table %d", len(tv.byTouch), len(tv.entries))
	}
	for i, en := range tv.byTouch {
		if en.hidx != i || en.deleted || tv.entries[en.keyStr] != en || en.due > en.touched {
			t.Fatalf("heap slot %d holds a stale entry %q", i, en.keyStr)
		}
		if p := (i - 1) / 2; i > 0 && tv.byTouch[p].due > en.due {
			t.Fatalf("heap order broken at slot %d", i)
		}
	}
}

// TestTableExpiryMatchesFullScan: a seeded random sequence of Put, Get,
// Has, Delete and Each, with timestamps that sometimes step backward,
// must leave TableVal in exactly the state of the reference full scan,
// under both &create_expire and &read_expire. Mid-sequence the table is
// checkpointed and restored, and replaced by a copy brought up to date
// through a table diff, so the restore paths keep the heap too.
func TestTableExpiryMatchesFullScan(t *testing.T) {
	ip := &Interp{}
	for _, onRead := range []bool{false, true} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("onRead=%v/seed=%d", onRead, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				const interval = 50
				tv := NewTable(false)
				tv.ExpireInterval, tv.ExpireOnRead = interval, onRead
				ref := &refTable{interval: interval, onRead: onRead, entries: map[string]*refEntry{}}
				keys := make([][]Val, 24)
				for i := range keys {
					keys[i] = []Val{StringVal(fmt.Sprintf("C%d", i%12)), CountVal(i / 12)}
				}

				var base *interpCache // diff base, taken mid-sequence
				var follower *TableVal
				now := int64(0)
				for step := 0; step < 3000; step++ {
					if rng.Intn(10) == 0 {
						now -= int64(rng.Intn(30)) // clocks may step backward
					} else {
						now += int64(rng.Intn(8))
					}
					k := keys[rng.Intn(len(keys))]
					ks := KeyString(k)
					switch op := rng.Intn(100); {
					case op < 40:
						y := CountVal(rng.Intn(1000))
						tv.Put(now, k, y)
						ref.put(now, ks, y)
					case op < 65:
						got, ok := tv.Get(now, k)
						want, wok := ref.get(now, ks)
						if ok != wok || (ok && got.Render() != want.Render()) {
							t.Fatalf("step %d: Get = %v,%v, reference %v,%v", step, got, ok, want, wok)
						}
					case op < 80:
						_, wok := ref.get(now, ks)
						if ok := tv.Has(now, k); ok != wok {
							t.Fatalf("step %d: Has = %v, reference %v", step, ok, wok)
						}
					case op < 92:
						tv.Delete(now, k)
						ref.del(ks)
					case op < 97:
						// Each sees exactly the live entries.
						n := 0
						tv.Each(func([]Val, Val) bool { n++; return true })
						if n != len(ref.entries) {
							t.Fatalf("step %d: Each saw %d entries, reference %d", step, n, len(ref.entries))
						}
					case op < 98:
						// Checkpoint and restore the table.
						var buf bytes.Buffer
						encodeVal(snapshot.NewRawEncoder(&buf), tv, 0)
						dec := snapshot.NewRawDecoder(buf.Bytes())
						restored, _ := decodeVal(dec, ip, 0).(*TableVal)
						if dec.Err() != nil || restored == nil {
							t.Fatalf("step %d: restore: %v", step, dec.Err())
						}
						var again bytes.Buffer
						encodeVal(snapshot.NewRawEncoder(&again), restored, 0)
						if !bytes.Equal(again.Bytes(), buf.Bytes()) {
							t.Fatalf("step %d: restored table encodes differently", step)
						}
						tv = restored
						base, follower = nil, nil
					default:
						// Diff base on the first visit; on the next,
						// bring the follower up to date and continue on it.
						if base == nil {
							var buf bytes.Buffer
							encodeVal(snapshot.NewRawEncoder(&buf), tv, 0)
							follower, _ = decodeVal(snapshot.NewRawDecoder(buf.Bytes()), ip, 0).(*TableVal)
							base = newInterpCache(tv)
							break
						}
						if body, changed := diffTable(base, tv); changed {
							if err := applyTableDiff(follower, body, ip); err != nil {
								t.Fatalf("step %d: applyTableDiff: %v", step, err)
							}
						}
						if got, want := dumpTable(follower), dumpTable(tv); got != want {
							t.Fatalf("step %d: diffed copy differs:\n  got  %s\n  want %s", step, got, want)
						}
						tv = follower
						base, follower = nil, nil
					}
					if got, want := dumpTable(tv), ref.dump(); got != want {
						t.Fatalf("step %d: table differs from the full scan:\n  got  %s\n  want %s", step, got, want)
					}
					checkHeap(t, tv)
				}
			})
		}
	}
}

// TestTableGetCostFlat: a lookup on a &read_expire table costs about the
// same at 10k entries as at 100 — expiry pops due entries off the heap
// instead of scanning the table on every access. Both tables are probed
// on the same 100 keys, so the comparison sees the table size and not
// cache misses on a larger working set; the two sizes are timed in
// alternation and the best of several rounds kept, which keeps the
// check stable while other tests load the machine.
func TestTableGetCostFlat(t *testing.T) {
	const hot, gets = 100, 20000
	table := func(n int) func() time.Duration {
		tv := NewTable(false)
		tv.ExpireInterval, tv.ExpireOnRead = int64(10*time.Minute), true
		keys := make([][]Val, n)
		for i := range keys {
			keys[i] = []Val{StringVal(fmt.Sprintf("C%07d", i))}
			tv.Put(int64(i), keys[i], CountVal(i))
		}
		now := int64(n)
		return func() time.Duration {
			start := time.Now()
			for i := 0; i < gets; i++ {
				now++
				if _, ok := tv.Get(now, keys[(i*7919)%hot]); !ok {
					t.Fatal("entry expired early")
				}
			}
			return time.Since(start) / gets
		}
	}
	small, large := table(hot), table(10000)
	bestSmall, bestLarge := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for round := 0; round < 7; round++ {
		bestSmall = min(bestSmall, small())
		bestLarge = min(bestLarge, large())
	}
	t.Logf("Get: %v at 100 entries, %v at 10k", bestSmall, bestLarge)
	if bestLarge > 5*bestSmall {
		t.Errorf("Get at 10k entries costs %v, more than 5x the %v at 100", bestLarge, bestSmall)
	}
}
