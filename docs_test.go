package repro

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdName matches a Markdown file name, with or without a directory prefix
// ("README.md", "internal/bench/README.md").
var mdName = regexp.MustCompile(`[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b`)

// TestDocReferencesResolve fails when a Go comment, README.md or
// ARCHITECTURE.md names a Markdown file that exists neither beside the
// naming file nor at the repository root. ROADMAP.md, CHANGES.md, PAPERS.md
// and SNIPPETS.md are history or quotation, so they are not scanned.
func TestDocReferencesResolve(t *testing.T) {
	check := func(file, text string) {
		for _, name := range mdName.FindAllString(text, -1) {
			beside := filepath.Join(filepath.Dir(file), name)
			if exists(beside) || exists(name) {
				continue
			}
			t.Errorf("%s names %s, which exists neither beside it nor at the repository root", file, name)
		}
	}
	for _, doc := range []string{"README.md", "ARCHITECTURE.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		check(doc, string(b))
	}
	fset := token.NewFileSet()
	walkGoFiles(t, ".", func(path string) error {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			check(path, cg.Text())
		}
		return nil
	})
}

// walkGoFiles calls fn for every .go file in the module rooted at root,
// failing t on the first error.
func walkGoFiles(t *testing.T, root string, fn func(path string) error) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// The go tool ignores these directories too; they hold no tracked Go.
			if path != root && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		return fn(path)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMakeFuzzListsEveryTarget fails when the module's Fuzz functions and
// the `make fuzz` list (dir:FuzzName entries) differ, either way: a fuzz
// target CI never runs, or a Makefile entry naming one that is gone.
func TestMakeFuzzListsEveryTarget(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, target := range regexp.MustCompile(`[a-z][\w/]*:Fuzz\w+`).FindAllString(string(mk), -1) {
		listed[target] = true
	}
	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	defined := map[string]bool{}
	walkGoFiles(t, ".", func(path string) error {
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			defined[filepath.ToSlash(filepath.Dir(path))+":"+m[1]] = true
		}
		return nil
	})
	if len(defined) == 0 {
		t.Fatal("no Fuzz functions found")
	}
	for k := range defined {
		if !listed[k] {
			t.Errorf("%s is not in the Makefile's fuzz list", k)
		}
	}
	for k := range listed {
		if !defined[k] {
			t.Errorf("the Makefile's fuzz list names %s, which is defined nowhere", k)
		}
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
