package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
)

// TestSimMeteredDeterministic: the same seed gives the same model energy
// and depth on fresh engines; another seed generates other inputs.
func TestSimMeteredDeterministic(t *testing.T) {
	meter := func(seed uint64) (float64, float64) {
		in := genSimMetered(seed)
		sys, err := bootSimMetered(in)
		if err != nil {
			t.Fatal(err)
		}
		energy, depth, _, err := sys.meter(in)
		if err != nil {
			t.Fatal(err)
		}
		return energy, depth
	}
	e1, d1 := meter(7)
	e2, d2 := meter(7)
	if e1 != e2 || d1 != d2 {
		t.Fatalf("seed 7 twice: energy %v vs %v, depth %v vs %v", e1, e2, d1, d2)
	}
	a, b := genSimMetered(7), genSimMetered(8)
	if slices.Equal(a.trees[0].Parents(), b.trees[0].Parents()) || slices.Equal(a.pool[0].vals, b.pool[0].vals) {
		t.Fatal("seeds 7 and 8 generated the same inputs")
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json names the workloads and
// metrics, with their units, that the command reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var listed, want []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(listed, want) {
		t.Errorf("workloads: BENCHMARK.json %v, command %v", listed, want)
	}
	var e2e, layers []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json %v, command %v", e2e, endToEnd)
	}
	if !slices.Equal(layers, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json %v, command %v", layers, perLayer)
	}
}

// TestSummarizeSelfTime: self time subtracts the union of the children's
// intervals, and rung means cover only requests every rung served.
func TestSummarizeSelfTime(t *testing.T) {
	tf := traceFile{
		Ladders: [][]string{{"inner", "outer"}},
		Spans: []span{
			{ID: 0, Parent: -1, Req: 0, Name: "inner", Start: 0, End: 10_000},
			{ID: 1, Parent: -1, Req: 0, Name: "outer", Start: 20_000, End: 50_000},
			{ID: 2, Parent: 1, Req: 0, Name: "child", Start: 22_000, End: 30_000},
			{ID: 3, Parent: 1, Req: 0, Name: "child", Start: 25_000, End: 35_000},
			{ID: 4, Parent: -1, Req: 1, Name: "outer", Start: 60_000, End: 99_000}, // no inner rung for req 1
		},
	}
	s := summarize(tf)
	if got := s.byName["outer"].selfUs; math.Abs(got-(30-13+39)/2.0) > 1e-9 {
		t.Errorf("outer self time %v us, want %v", got, (30-13+39)/2.0)
	}
	if got := s.rungDiff("outer", "inner"); got != 20 {
		t.Errorf("rung difference %v us, want 20", got)
	}
}

// TestChurnBand: whatever order the generated mutations run in, every
// shard stays within its size band, and about a quarter of the
// operations are mutations.
func TestChurnBand(t *testing.T) {
	in := genChurn(3, 10)
	for _, ops := range [][]churnOp{in.open, in.closed} {
		leaves := make([]int, churnShards)
		muts := 0
		for _, op := range ops {
			if op.kind != 'm' {
				continue
			}
			muts++
			if deletes(op, leaves[op.shard]) {
				leaves[op.shard]--
			} else {
				leaves[op.shard]++
			}
			if k := leaves[op.shard]; k < 0 || k > churnBand {
				t.Fatalf("shard %d holds %d inserted leaves, outside [0, %d]", op.shard, k, churnBand)
			}
		}
		if share := float64(muts) / float64(len(ops)); share < 0.2 || share > 0.3 {
			t.Fatalf("mutation share %.3f, want about 0.25", share)
		}
	}
}
