package mat2c

import (
	"testing"

	"mat2c/internal/pdesc"
)

// TestCacheKeyGolden pins the content address of one compilation on
// dspasip and on a derived variant, and the key of the root of each
// one's trie, so a change to how keys render the processor or the
// shape (or anything else they cover) that would leave every existing
// store cold cannot land without a cacheKeyVersion bump. The variant's
// description needs JSON's HTML escaping.
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
		name       string
		opts       Options
		want, root string
	}{
		{"dspasip", Options{Target: "dspasip"},
			"5e1b77528152e4efd5fa3c76ffafe1f650f7382bc5bbccb2e8b619c3b598d868", "d311f426aa9cf35bc3548fe5d5a03a7a5f4d6c6121e6adc6b472ab82b5f58aa0"},
		{"variant", Options{Processor: variant, SkipC: true},
			"8193f6f1916aee66272b7610a149618dd6b3b0fa0cbee0e6cabb17920fdc675b", "aeade3edb0b4a39bff303cb9295790c1f82d45eb62323b9fdd1d963c28badf6f"},
	} {
		keys, err := Keys(tc.opts, Input{Source: cacheTestSrc, Entry: "scale", Params: cacheTestParams})
		if err != nil {
			t.Fatal(err)
		}
		if got := keys[0].String(); got != tc.want {
			t.Errorf("%s: CacheKey %s, want %s", tc.name, got, tc.want)
		}
		if got := keys[0].root; got != tc.root {
			t.Errorf("%s: trie root %s, want %s", tc.name, got, tc.root)
		}
	}
}
