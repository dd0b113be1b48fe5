package lint

// This file is the suite's fixture runner: a minimal reimplementation
// of golang.org/x/tools/go/analysis/analysistest (the toolchain image
// has no module cache, so the upstream harness is unavailable) over the
// same testdata/src layout and `// want "regex"` convention.
//
// Each fixture directory under testdata/src is one package of
// deliberately violating and conforming code. A `// want "pattern"`
// comment expects exactly one diagnostic on its line whose rendered
// "analyzer: message" matches the pattern; multiple patterns on one
// line expect that many diagnostics. Diagnostics with no matching want,
// and wants with no matching diagnostic, fail the test.

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"testing"
)

// fixtureLoader is shared across every fixture test: the source
// importer's std-library type-checking (context) is paid once per
// `go test` process instead of once per fixture.
var (
	fixtureLoader     *Loader
	fixtureLoaderOnce sync.Once
)

func loadFixture(t *testing.T, dir, importPath string) *Package {
	t.Helper()
	fixtureLoaderOnce.Do(func() { fixtureLoader = NewLoader() })
	pkg, err := fixtureLoader.LoadDir(importPath, filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	return pkg
}

// testFixture runs analyzers over testdata/src/<dir> (type-checked as
// importPath — ctxcheck fixtures opt into scope through it) and matches
// the diagnostics against the fixture's want comments.
func testFixture(t *testing.T, analyzers []*Analyzer, dir, importPath string) {
	t.Helper()
	pkg := loadFixture(t, dir, importPath)
	diags := RunAnalyzers(analyzers, []*Package{pkg})
	wants := collectWants(t, pkg)

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		rendered := d.Analyzer + ": " + d.Message
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.re.MatchString(rendered) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: %s", d.Pos, rendered)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s: no diagnostic matching want %q", key, w.re)
			}
		}
	}
}

type wantExpectation struct {
	re   *regexp.Regexp
	used bool
}

// wantRe matches a `// want "p1" "p2"` comment; the quoted patterns are
// extracted by quotedRe.
var (
	wantRe   = regexp.MustCompile(`//\s*want\s+(.+)$`)
	quotedRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
)

// collectWants parses every fixture file's want comments, keyed by
// "filename:line".
func collectWants(t *testing.T, pkg *Package) map[string][]*wantExpectation {
	t.Helper()
	wants := make(map[string][]*wantExpectation)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, q := range quotedRe.FindAllString(m[1], -1) {
					pattern, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: malformed want pattern %s: %v", key, q, err)
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: want pattern %q: %v", key, pattern, err)
					}
					wants[key] = append(wants[key], &wantExpectation{re: re})
				}
			}
		}
	}
	return wants
}
