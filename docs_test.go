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
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// The go tool ignores these directories too; they hold no tracked Go.
			if path != "." && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			check(path, cg.Text())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
