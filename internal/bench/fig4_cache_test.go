package bench

import (
	"reflect"
	"testing"

	mat2c "mat2c"
	"mat2c/internal/artifact"
)

// TestFig4WithCacheRecompilesNothing regenerates Figure 4 over a
// durable store twice, each time through a fresh cache as a new
// process would: the second run is served from the store, compiles
// nothing, and measures the same rows.
func TestFig4WithCacheRecompilesNothing(t *testing.T) {
	dir := t.TempDir()
	fig4 := func() ([]Fig4Row, mat2c.CacheStats) {
		t.Helper()
		store, err := artifact.OpenDisk(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		c := mat2c.NewCache(0)
		c.SetStore(store)
		rows, err := Fig4(0.1, WithCache(c))
		if err != nil {
			t.Fatal(err)
		}
		c.Flush()
		return rows, c.Stats()
	}
	first, st := fig4()
	if st.Compiles == 0 || st.Misses != st.Compiles+st.DiskHits+st.FlightWaits {
		t.Fatalf("first run: %+v, want compiles through the cache", st)
	}
	again, st := fig4()
	if st.Compiles != 0 || st.DiskHits == 0 {
		t.Errorf("second run: %d compiles, %d disk hits; want 0 compiles", st.Compiles, st.DiskHits)
	}
	if !reflect.DeepEqual(first, again) {
		t.Errorf("rows differ between the compiled and the restored run:\n%+v\n%+v", first, again)
	}
}
