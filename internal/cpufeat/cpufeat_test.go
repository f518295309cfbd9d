package cpufeat

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestFeaturesMatchCPUInfo checks the probe against the flags Linux lists
// in /proc/cpuinfo: POPCNT and BMI2 must agree, and AVX512BW must be set
// whenever avx512f and avx512bw are listed.
func TestFeaturesMatchCPUInfo(t *testing.T) {
	t.Logf("probed %v: AVX512BW %v, POPCNT %v, BMI2 %v", probed, AVX512BW, POPCNT, BMI2)
	if !probed {
		if AVX512BW || POPCNT || BMI2 {
			t.Fatal("a feature is set in a build without the probe")
		}
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(val)
			break
		}
	}
	if POPCNT != slices.Contains(flags, "popcnt") || BMI2 != slices.Contains(flags, "bmi2") {
		t.Errorf("POPCNT %v, BMI2 %v; /proc/cpuinfo lists popcnt %v, bmi2 %v",
			POPCNT, BMI2, slices.Contains(flags, "popcnt"), slices.Contains(flags, "bmi2"))
	}
	if slices.Contains(flags, "avx512f") && slices.Contains(flags, "avx512bw") && !AVX512BW {
		t.Error("/proc/cpuinfo lists avx512f and avx512bw but AVX512BW is false")
	}
}
