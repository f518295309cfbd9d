//go:build !amd64 || purego

package cpufeat

// probed reports that this build runs the CPUID probe: it does not, and
// every feature stays false.
const probed = false
