package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestQuickExhibitsMatchGolden renders every exhibit at the quick
// configuration and compares the text byte for byte against
// testdata/quick.golden. Every exhibit is seeded, so any change in a
// threshold, charge band, noise draw or dataset sample shows up here.
// Regenerate the file with
//
//	go run ./cmd/dpbench -quick > internal/experiments/testdata/quick.golden
//
// only when an output change is intended.
func TestQuickExhibitsMatchGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := RunAll(Quick(), &got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl := strings.Split(got.String(), "\n")
	wl := strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("quick exhibits differ from testdata/quick.golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
