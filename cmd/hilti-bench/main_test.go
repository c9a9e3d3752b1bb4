package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// The -bench-json document feeds EXPERIMENTS.md refreshes and offline
// regression tracking; downstream scripts key on exact field names. This
// test locks the schema without running any benchmark: a renamed or
// dropped JSON key fails here first, not in a consumer.

func TestBenchRowJSONSchema(t *testing.T) {
	row := benchRow{
		Name:         "hilti_filter_O1",
		OptLevel:     1,
		Packets:      1000,
		NsPerOp:      123456.7,
		AllocsPerOp:  8,
		BytesPerOp:   512,
		NsPerPkt:     123.4,
		StaticInstrs: 42,
		InstrsPerPkt: 9.5,
	}
	out, err := json.Marshal(struct {
		Rows []benchRow `json:"benchmarks"`
	}{[]benchRow{row}})
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string][]map[string]any
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}
	rows, ok := doc["benchmarks"]
	if !ok || len(rows) != 1 {
		t.Fatalf("top-level shape wrong: %s", out)
	}
	got := make([]string, 0, len(rows[0]))
	for k := range rows[0] {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{
		"allocs_per_op", "bytes_per_op", "instrs_per_pkt", "name",
		"ns_per_op", "ns_per_pkt", "opt_level", "packets", "static_instrs",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bench-json keys changed:\n  got  %v\n  want %v", got, want)
	}
}

// The omitempty fields exist so non-VM rows (BPF baseline, hand-written
// firewall) stay clean; their absence is part of the schema too.
func TestBenchRowOmitsVMFieldsWhenZero(t *testing.T) {
	out, err := json.Marshal(benchRow{Name: "bpf_interpreter", Packets: 10})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(out, &m); err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{"static_instrs", "instrs_per_pkt"} {
		if _, ok := m[absent]; ok {
			t.Errorf("%s serialized on a non-VM row: %s", absent, out)
		}
	}
	for _, present := range []string{"name", "packets", "ns_per_op", "allocs_per_op", "bytes_per_op", "ns_per_pkt", "opt_level"} {
		if _, ok := m[present]; !ok {
			t.Errorf("%s missing: %s", present, out)
		}
	}
}

// TestRecordedRatio: the CI tier and rules stages derive their ceilings
// from the committed baselines through recordedRatio. The committed files
// must yield a usable ratio, and a baseline lacking a row or holding
// malformed JSON must be an error, never a silently derived ceiling.
func TestRecordedRatio(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	tier := func(p string) (float64, error) { return recordedRatio(p, "benchmarks", tierRatio) }
	rules := func(p string) (float64, error) { return recordedRatio(p, "rules", rulesRatio) }
	for _, tc := range []struct {
		name   string
		read   func(string) (float64, error)
		path   string
		lo, hi float64 // accepted ratio range; lo == hi == 0 wants an error
	}{
		// Tier-2 is slower than the BPF interpreter; the compiled rule
		// plane is faster than the linear walk.
		{"committed tier baseline", tier, "../../BENCH_tier.json", 1, 100},
		{"committed rules baseline", rules, "../../BENCH_rules.json", 0.001, 1},
		{"tier row missing", tier, write("tier.json",
			`{"benchmarks":[{"name":"bpf_interpreter","ns_per_pkt":31}]}`), 0, 0},
		{"rules rows missing", rules, write("rules.json", `{"rules":[]}`), 0, 0},
		{"malformed tier JSON", tier, write("bad-tier.json", `{"benchmarks":[{"name":`), 0, 0},
		{"malformed rules JSON", rules, write("bad-rules.json", `{"rules":{}}`), 0, 0},
		{"missing file", tier, filepath.Join(dir, "absent.json"), 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.read(tc.path)
			if tc.lo == 0 && tc.hi == 0 {
				if err == nil {
					t.Fatalf("accepted, ratio %v", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got < tc.lo || got > tc.hi {
				t.Fatalf("ratio %v outside [%v, %v]", got, tc.lo, tc.hi)
			}
		})
	}
}
