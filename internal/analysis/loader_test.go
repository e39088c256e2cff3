package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadParseFailure: a file that does not parse fails the package load
// with a positioned syntax error instead of panicking or skipping silently.
func TestLoadParseFailure(t *testing.T) {
	_, err := loaderFor(t).LoadDir(fixtureDir("broken"))
	if err == nil {
		t.Fatal("LoadDir(broken) succeeded, want syntax error")
	}
	if !strings.Contains(err.Error(), "broken.go") {
		t.Errorf("error %q does not name the offending file", err)
	}
}

// TestLoadTypeErrors: a package that parses but does not type-check still
// loads — syntax and partial type info intact — with every checker error
// collected, and the analyzers run on it without panicking.
func TestLoadTypeErrors(t *testing.T) {
	pkg, err := loaderFor(t).LoadDir(fixtureDir("typeerr"))
	if err != nil {
		t.Fatalf("LoadDir(typeerr): %v (type errors must not fail the load)", err)
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("got %d files, want 1", len(pkg.Files))
	}
	if len(pkg.TypeErrors) == 0 {
		t.Fatal("TypeErrors is empty, want the undefined-identifier and bad-import errors collected")
	}
	// Analyzers must degrade gracefully on partial type information.
	active, suppressed, _ := Run(pkg, All)
	if len(active) != 0 || len(suppressed) != 0 {
		t.Errorf("analyzers reported findings on fixture with no hot code: %v %v", active, suppressed)
	}
}

// TestLoadHonorsBuildConstraints: files a _GOARCH suffix or a //go:build
// line excludes are not loaded, so an assembly declaration and its pure-Go
// twin for other architectures do not collide as a redeclaration, and the
// analyzers see exactly the files the go command builds.
func TestLoadHonorsBuildConstraints(t *testing.T) {
	pkg, err := loaderFor(t).LoadDir(fixtureDir("buildtags"))
	if err != nil {
		t.Fatalf("LoadDir(buildtags): %v", err)
	}
	if len(pkg.TypeErrors) != 0 {
		t.Fatalf("TypeErrors = %v, want none", pkg.TypeErrors)
	}
	var names []string
	for _, f := range pkg.Files {
		names = append(names, filepath.Base(pkg.Fset.File(f.Pos()).Name()))
	}
	if len(names) != 2 || names[1] != "use.go" {
		t.Fatalf("loaded %v, want one kernel file and use.go", names)
	}
	if active, _, _ := Run(pkg, All); len(active) != 0 {
		t.Errorf("analyzers reported findings on the build-tag fixture: %v", active)
	}
}

// TestLoadDirCaching: loading the same import path twice returns the same
// package, so a ./... run type-checks each package once.
func TestLoadDirCaching(t *testing.T) {
	l := loaderFor(t)
	a, err := l.LoadDir(fixtureDir("errdrop"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.LoadDir(fixtureDir("errdrop"))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("LoadDir returned distinct packages for the same dir")
	}
}

// TestExpandSkipsTestdata: the ./... walk must skip testdata (fixtures with
// deliberate findings and broken files), vendor, and dot/underscore dirs.
func TestExpandSkipsTestdata(t *testing.T) {
	dirs, err := loaderFor(t).Expand([]string{"./..."})
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	foundFFT := false
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("Expand included testdata dir %s", d)
		}
		if filepath.ToSlash(d) == filepath.ToSlash(filepath.Join(loaderFor(t).Root, "internal/fft")) {
			foundFFT = true
		}
	}
	if !foundFFT {
		t.Error("Expand(./...) did not include internal/fft")
	}
}

// TestImportPathMapping: fixture directories map to module-rooted import
// paths, which is what makes suffix-matched analyzers testable.
func TestImportPathMapping(t *testing.T) {
	pkg, err := loaderFor(t).LoadDir(fixtureDir("hot", "internal", "fft"))
	if err != nil {
		t.Fatal(err)
	}
	want := "soifft/internal/analysis/testdata/src/hot/internal/fft"
	if pkg.Path != want {
		t.Errorf("fixture import path = %q, want %q", pkg.Path, want)
	}
	if !pathHasSuffix(pkg.Path, "internal/fft") {
		t.Error("fixture path does not suffix-match internal/fft")
	}
}
