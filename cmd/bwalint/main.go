// Command bwalint machine-enforces allocation discipline in
// //bwalint:hot-annotated kernels (the hotalloc analyzer). It looks at
// one package at a time. Import-graph rules (the pkg/ facade, the rig kept
// off the shipped binaries) live in the root package's deps_test.go
// instead.
//
// It is a vet tool; a direct run re-executes go vet with it, so these are
// the same check:
//
//	go vet -vettool=$(command -v bwalint) ./...  # make lint
//	bwalint ./...
//
// Any finding fails the run. Suppress one with an annotated directive on
// (or right above) the line: //bwalint:ignore <analyzer> <reason>.
package main

import (
	"repro/internal/analysis"
	"repro/internal/analysis/suite"
)

func main() {
	analysis.Main(suite.Analyzers()...)
}
