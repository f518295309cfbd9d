// Package suite is the single registry of bwalint analyzers. The binary
// (cmd/bwalint) and the tests must take their analyzer list from
// Analyzers so that the binary, the docs drift test, and the
// unused-directive audit all agree on what "all analyzers" means.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/hotalloc"
)

// Analyzers returns the full bwalint suite in stable (alphabetical)
// order. Callers must not mutate the returned slice's Analyzer values.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		hotalloc.Analyzer,
	}
}
