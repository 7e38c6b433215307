package bench

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mat2c/internal/pdesc"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden with current output")

// renderAllTables renders every paper table and figure at paper scale
// on the DSP ASIP, exactly as `benchtab -all` prints them (each table
// followed by a blank line).
func renderAllTables(t *testing.T) string {
	t.Helper()
	p, err := pdesc.Resolve("dspasip")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	emit := func(s string, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(s)
		b.WriteString("\n")
	}
	t1, err := Table1(p, 1)
	emit(Table1Text(t1), err)
	f2, err := Fig2(p, 1)
	emit(Fig2Text(f2), err)
	f3, err := Fig3(1)
	emit(Fig3Text(f3), err)
	f4, err := Fig4(1)
	emit(Fig4Text(f4), err)
	t2, err := Table2(p)
	emit(Table2Text(t2), err)
	t3, err := Table3(p)
	emit(Table3Text(t3), err)
	return b.String()
}

// TestTablesGolden pins the rendered paper tables byte for byte, so a
// change anywhere in the compiler, simulator or harness that moves a
// cycle count or code size shows up as a reviewable diff. Regenerate
// intentionally with
//
//	go test ./internal/bench/ -run TestTablesGolden -update
func TestTablesGolden(t *testing.T) {
	got := renderAllTables(t)
	path := filepath.Join("testdata", "tables.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s: rendered tables differ from golden file (rerun with -update if intentional)\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}
