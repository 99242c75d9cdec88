package dataset

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCatalogHasSevenValidDatasets(t *testing.T) {
	cat := Catalog()
	if len(cat) != 7 {
		t.Fatalf("catalog has %d datasets, want 7 (Table I)", len(cat))
	}
	seen := map[string]bool{}
	for _, m := range cat {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
		if seen[m.Name] {
			t.Errorf("duplicate dataset %q", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("Statlog (Heart)")
	if err != nil {
		t.Fatal(err)
	}
	if m.Entries != 270 {
		t.Errorf("entries = %d", m.Entries)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name should error")
	}
}

func TestGenerateMatchesMoments(t *testing.T) {
	for _, m := range Catalog() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			// Generate a large sample for stable moments.
			xs := m.GenerateN(50000, 1)
			s := Describe(xs)
			if s.Min < m.Min-1e-9 || s.Max > m.Max+1e-9 {
				t.Errorf("sample range [%g, %g] outside [%g, %g]", s.Min, s.Max, m.Min, m.Max)
			}
			// Mean within 10% of range; std within 25% of target
			// (truncation shifts both slightly).
			if math.Abs(s.Mean-m.Mean) > 0.1*m.Range() {
				t.Errorf("mean %g, want ~%g", s.Mean, m.Mean)
			}
			if math.Abs(s.Std-m.Std)/m.Std > 0.25 {
				t.Errorf("std %g, want ~%g", s.Std, m.Std)
			}
		})
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	m := Catalog()[0]
	a := m.Generate(7)
	b := m.Generate(7)
	if len(a) != m.Entries {
		t.Fatalf("len = %d, want %d", len(a), m.Entries)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d", i)
		}
	}
	c := m.Generate(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical data")
	}
}

func TestDifferentDatasetsDifferUnderSameSeed(t *testing.T) {
	cat := Catalog()
	a := cat[3].GenerateN(100, 1)
	b := cat[6].GenerateN(100, 1)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > 5 {
		t.Errorf("%d of 100 samples identical across datasets", same)
	}
}

func TestCeilingMixHasSaturationAtom(t *testing.T) {
	m, err := ByName("Robot Sensors")
	if err != nil {
		t.Fatal(err)
	}
	xs := m.GenerateN(20000, 3)
	atMax := 0
	for _, x := range xs {
		if x == m.Max {
			atMax++
		}
	}
	frac := float64(atMax) / float64(len(xs))
	if math.Abs(frac-m.CeilFrac) > 0.02 {
		t.Errorf("saturation fraction %g, want ~%g", frac, m.CeilFrac)
	}
}

func TestValidateRejectsBadMeta(t *testing.T) {
	bad := []Meta{
		{Name: "x", Entries: 0, Min: 0, Max: 1, Mean: 0.5, Std: 0.1},
		{Name: "x", Entries: 10, Min: 1, Max: 1, Mean: 1, Std: 0.1},
		{Name: "x", Entries: 10, Min: 0, Max: 1, Mean: 2, Std: 0.1},
		{Name: "x", Entries: 10, Min: 0, Max: 1, Mean: 0.5, Std: 0},
		{Name: "x", Entries: 10, Min: 0, Max: 1, Mean: 0.5, Std: 0.1, CeilFrac: 0.9},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("meta %d should be invalid", i)
		}
	}
}

func TestGeneratePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(Meta{Name: "bad"}).Generate(1)
}

func TestDescribeEmpty(t *testing.T) {
	if s := Describe(nil); s.N != 0 {
		t.Errorf("empty describe: %+v", s)
	}
}

func TestLoadCSVRoundTrip(t *testing.T) {
	m, err := ByName("Auto-MPG")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Write the canonical CSV (the format datagen emits).
	var sb strings.Builder
	sb.WriteString("# comment line\nvalue\n")
	want := m.GenerateN(50, 3)
	for _, v := range want {
		fmt.Fprintf(&sb, "%g\n", v)
	}
	if err := os.WriteFile(filepath.Join(dir, m.FileName()), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := m.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("loaded %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("value %d: %g != %g", i, got[i], want[i])
		}
	}
}

func TestLoadClampsToRange(t *testing.T) {
	m, err := ByName("Statlog (Heart)")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	content := "50\n250\n130\n"
	if err := os.WriteFile(filepath.Join(dir, m.FileName()), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := m.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != m.Min || got[1] != m.Max || got[2] != 130 {
		t.Errorf("clamping wrong: %v", got)
	}
}

func TestLoadCSVErrors(t *testing.T) {
	if _, err := LoadCSV(strings.NewReader("")); err == nil {
		t.Error("empty CSV should error")
	}
	if _, err := LoadCSV(strings.NewReader("abc\n")); err == nil {
		t.Error("garbage should error")
	}
	m := Catalog()[0]
	if _, err := m.Load(t.TempDir()); err == nil {
		t.Error("missing file should error")
	}
}

func TestFileNames(t *testing.T) {
	want := map[string]string{
		"Auto-MPG":        "auto_mpg.csv",
		"Statlog (Heart)": "statlog_heart.csv",
	}
	for name, fn := range want {
		m, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.FileName(); got != fn {
			t.Errorf("FileName(%q) = %q, want %q", name, got, fn)
		}
	}
}

func TestShapeStrings(t *testing.T) {
	for s, want := range map[Shape]string{
		TruncNormal: "trunc-normal", SkewedLogNormal: "skewed-lognormal",
		CeilingMix: "ceiling-mix", Bimodal: "bimodal", Shape(9): "Shape(9)",
	} {
		if got := s.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

// catalogFingerprint is FNV-1a over the bits of every value Generate
// produces for the catalog at seeds 1 and 2. It pins the generators
// bit for bit: hoisting the moment solves out of the per-value loop
// must leave the rng stream, and hence every sample, unchanged.
const catalogFingerprint = 0x68b38f66abb1b8b3

func TestCatalogFingerprint(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	for _, seed := range []uint64{1, 2} {
		for _, m := range Catalog() {
			for _, v := range m.Generate(seed) {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	if got := h.Sum64(); got != catalogFingerprint {
		t.Errorf("catalog fingerprint %#x, want %#x", got, uint64(catalogFingerprint))
	}
}
