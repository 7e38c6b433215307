package e2ebench

import (
	"bytes"
	"context"
	"testing"

	mat2c "mat2c"
	"mat2c/internal/bench"
	"mat2c/internal/dse"
)

func TestSweepSpecDeterministicPerSeed(t *testing.T) {
	a, err := SweepSpec(1, false)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := SweepSpec(1, false)
	c, _ := SweepSpec(2, false)
	if !bytes.Equal(a, b) {
		t.Error("same seed gave different sweep specs")
	}
	if bytes.Equal(a, c) {
		t.Error("seeds 1 and 2 gave the same sweep spec")
	}

	sw, err := dse.ParseSweep(a)
	if err != nil {
		t.Fatal(err)
	}
	base, err := mat2c.LoadProcessor("dspasip")
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Costs) != 2 || len(sw.Costs[0].Costs) != 0 || len(sw.Costs[1].Costs) != 3 {
		t.Fatalf("cost sets = %+v, want the base table and a three-class override", sw.Costs)
	}
	for class, v := range sw.Costs[1].Costs {
		if v < 1 || v == base.Cost(class) {
			t.Errorf("override %s = %d; want >= 1 and different from the base cost %d", class, v, base.Cost(class))
		}
	}
	variants, _, err := dse.EnumerateAll(context.Background(), []*dse.Sweep{sw})
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) != 272 {
		t.Errorf("spec enumerates %d variants, want 272", len(variants))
	}
}

func TestRequestMixDeterministicPerSeed(t *testing.T) {
	cat, err := catalog(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(cat) != 6*len(mat2c.Targets())*len(runScales) {
		t.Fatalf("catalog has %d entries", len(cat))
	}
	window := func(seed uint64) []byte {
		var all []byte
		for _, r := range drawRequests(cat, seed, "open", 0, 500) {
			all = append(append(all, r.body...), '\n')
		}
		return all
	}
	if !bytes.Equal(window(1), window(1)) {
		t.Error("same seed gave different request bytes")
	}
	if bytes.Equal(window(1), window(2)) {
		t.Error("seeds 1 and 2 gave the same request bytes")
	}
	unique := 0
	for _, r := range drawRequests(cat, 1, "open", 0, 2000) {
		if r.source != r.entry.source {
			unique++
		}
	}
	if unique < 100 || unique > 300 {
		t.Errorf("%d of 2000 requests carry a one-off source, want about 10%%", unique)
	}
}

func TestTypeListRoundTrips(t *testing.T) {
	for _, k := range bench.Kernels() {
		text, err := typeList(k.Params)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mat2c.ParseTypes(text)
		if err != nil {
			t.Fatalf("%s: %q: %v", k.Name, text, err)
		}
		for i := range got {
			if !got[i].Equal(k.Params[i]) {
				t.Errorf("%s: %q parses to %v, want %v", k.Name, text, got[i], k.Params[i])
			}
		}
	}
}
