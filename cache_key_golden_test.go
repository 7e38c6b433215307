package mat2c

import (
	"testing"

	"mat2c/internal/pdesc"
)

// TestCacheKeyGolden pins the content address of one compilation on
// dspasip and on a derived variant, so a change to how keys render the
// processor (or anything else they cover) that would leave every
// existing store cold cannot land without a cacheKeyVersion bump. The
// variant's description needs JSON's HTML escaping.
func TestCacheKeyGolden(t *testing.T) {
	variant, err := pdesc.Builtin("dspasip").Derive("dspasip-w8-cl4-cmplx+mac-seeded", func(q *pdesc.Processor) {
		q.SIMDWidth, q.ComplexLanes = 8, 4
		q.Description = "DSE variant of dspasip <w8 & cl4>"
		q.Costs["load"], q.Costs["vop"] = 1, 4
		q.Instructions = q.Instructions[:5]
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"dspasip", Options{Target: "dspasip"}, "8fd0491f2a3e0b69e536512a2ba199c745fb034dd9f0a071c79b4331420a5fad"},
		{"variant", Options{Processor: variant, SkipC: true}, "6e5791e4d11e7caf543dd23dc4a9bc1986cb17708971133738b5260c15909b9a"},
	} {
		got, err := CacheKey(cacheTestSrc, "scale", cacheTestParams, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: CacheKey %s, want %s", tc.name, got, tc.want)
		}
	}
}
