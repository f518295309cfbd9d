package suite_test

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"

	"repro/internal/analysis/suite"
)

// TestAnalyzerNamesSortedUnique pins the registry's own invariants:
// stable order, unique names (directive matching keys on them).
func TestAnalyzerNamesSortedUnique(t *testing.T) {
	as := suite.Analyzers()
	if len(as) == 0 {
		t.Fatal("empty suite")
	}
	seen := map[string]bool{}
	var names []string
	for _, a := range as {
		if a.Name == "" {
			t.Fatal("analyzer with empty name")
		}
		if seen[a.Name] {
			t.Fatalf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		names = append(names, a.Name)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("suite.Analyzers() not in alphabetical order: %v", names)
	}
}

// TestREADMETableMatchesSuite drift-locks the README analyzer table to
// the registered suite, in both directions: every registered analyzer
// has a row, and every row names a registered analyzer.
func TestREADMETableMatchesSuite(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	// Table rows are "| `name` | contract |"; the repo-layout table's
	// first cells all contain '/' or spaces, so a bare lowercase word is
	// unambiguous.
	rowRE := regexp.MustCompile("(?m)^\\| `([a-z]+)` \\|")
	inTable := map[string]bool{}
	for _, m := range rowRE.FindAllStringSubmatch(string(data), -1) {
		if inTable[m[1]] {
			t.Errorf("README analyzer table lists %q twice", m[1])
		}
		inTable[m[1]] = true
	}
	registered := map[string]bool{}
	for _, a := range suite.Analyzers() {
		registered[a.Name] = true
		if !inTable[a.Name] {
			t.Errorf("analyzer %q registered in suite but missing from the README analyzer table", a.Name)
		}
	}
	for name := range inTable {
		if !registered[name] {
			t.Errorf("README analyzer table lists %q, which is not registered in suite.Analyzers()", name)
		}
	}
}
