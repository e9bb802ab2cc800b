package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// loadCheckedIn reads the repository's floor file and baseline.
func loadCheckedIn(t *testing.T) (Floors, Doc) {
	t.Helper()
	fl, err := readFloors("../../testdata/bench_floors.json")
	if err != nil {
		t.Fatal(err)
	}
	base, err := readDoc("../../testdata/bench_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	return fl, base
}

// withOp returns a copy of d with op's metric set to v.
func withOp(t *testing.T, d Doc, op, metric string, v float64) Doc {
	t.Helper()
	out := d
	out.Benchmarks = append([]Bench(nil), d.Benchmarks...)
	for i := range out.Benchmarks {
		if out.Benchmarks[i].Op != op {
			continue
		}
		switch metric {
		case "ns_per_op":
			out.Benchmarks[i].Ns = v
		case "allocs_per_op":
			out.Benchmarks[i].Allocs = int64(v)
		default:
			t.Fatalf("unknown metric %q", metric)
		}
		return out
	}
	t.Fatalf("op %q not in the doc", op)
	return Doc{}
}

func opValue(t *testing.T, d Doc, op, metric string) float64 {
	t.Helper()
	for _, b := range d.Benchmarks {
		if b.Op == op {
			v, ok := b.metric(metric)
			if !ok {
				t.Fatalf("unknown metric %q", metric)
			}
			return v
		}
	}
	t.Fatalf("op %q not in the doc", op)
	return 0
}

func TestFloorsPassOnBaseline(t *testing.T) {
	fl, base := loadCheckedIn(t)
	var out bytes.Buffer
	if checkFloors(&out, fl, base) {
		t.Fatalf("the checked-in baseline misses a floor:\n%s", out.String())
	}
}

// TestFloorsFailWhenMissed moves one arm of each floor just past its
// bound, with every other number at the baseline, and expects exactly
// that floor to fail.
func TestFloorsFailWhenMissed(t *testing.T) {
	fl, base := loadCheckedIn(t)
	cases := []struct {
		floor string
		scale float64 // the missed ratio, relative to the bound
	}{
		{"E16 native >= 5x sim", 0.99},
		{"E17 binary >= 2x JSON", 0.99},
		{"E17 binary allocs <= 0.5x JSON", 1.01},
		{"E17 one connection >= 0.8x many", 0.99},
	}
	if len(cases) != len(fl.Floors) {
		t.Fatalf("floor file has %d floors, the table %d", len(fl.Floors), len(cases))
	}
	for _, tc := range cases {
		t.Run(tc.floor, func(t *testing.T) {
			var f *Floor
			for i := range fl.Floors {
				if fl.Floors[i].Name == tc.floor {
					f = &fl.Floors[i]
				}
			}
			if f == nil {
				t.Fatalf("floor %q not in the floor file", tc.floor)
			}
			bound := f.Min
			if f.Max > 0 {
				bound = f.Max
			}
			den := opValue(t, base, f.Den, f.Metric)
			missed := withOp(t, base, f.Num, f.Metric, den*bound*tc.scale)
			var out bytes.Buffer
			if !checkFloors(&out, fl, missed) {
				t.Fatalf("a missed floor passed:\n%s", out.String())
			}
			var fails []string
			for _, line := range strings.Split(out.String(), "\n") {
				if strings.HasPrefix(line, "FAIL") {
					fails = append(fails, line)
				}
			}
			if len(fails) != 1 || !strings.Contains(fails[0], tc.floor) {
				t.Fatalf("want exactly %q to fail, got:\n%s", tc.floor, out.String())
			}
		})
	}
}

func TestFloorsFailOnMissingOp(t *testing.T) {
	fl, base := loadCheckedIn(t)
	var kept Doc
	for _, b := range base.Benchmarks {
		if b.Op != fl.Floors[0].Den {
			kept.Benchmarks = append(kept.Benchmarks, b)
		}
	}
	if !checkFloors(io.Discard, fl, kept) {
		t.Fatal("a floor whose arm is missing from the run passed")
	}
}
