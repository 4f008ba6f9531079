package suite

import (
	"runtime"
	"testing"

	"ompssgo/internal/poolcheck"
	"ompssgo/ompss"
	"ompssgo/pthread"
)

// goldenSmall pins the result checksum of every benchmark's Small instance,
// computed once from the sequential reference (see TestGoldenMatchesSeq).
// TestAllVariantsComputeIdenticalResults already checks that all variants
// agree with RunSeq *at runtime*; the golden table additionally detects the
// failure mode where a change corrupts the sequential reference itself (or
// corrupts data identically in every variant) — then all variants still
// agree with each other and only a checked-in constant fails loudly.
//
// The kernels do float64 math, so the constants are pinned per architecture
// family: Go evaluates IEEE-754 operations exactly, but architectures with
// fused multiply-add (e.g. arm64, the macos-latest CI leg) may contract
// expressions differently. Checksums live in a per-GOARCH table; an
// architecture without a recorded table skips with instructions instead of
// failing, so the CI matrix stays green while the runtime-level
// cross-variant checks (TestAllVariantsComputeIdenticalResults) still run
// everywhere.
var goldenByArch = map[string]map[string]uint64{
	"amd64": {
		"c-ray":         0x2c647efd82d4094b,
		"rotate":        0x4fb014c39194b520,
		"rgbcmy":        0x94dfc188964046a9,
		"md5":           0xb4e80f66c7abd17e,
		"kmeans":        0x0b04afdfd2e34e5e,
		"ray-rot":       0x61c999bff6540303,
		"rot-cc":        0x3bb7fa02b0196635,
		"streamcluster": 0xcc7aa802860fbd1f,
		"bodytrack":     0x4304430f170721cd,
		"h264dec":       0x7609aac59dfab851,
	},
}

// goldenSmall returns this architecture's checksum table, or skips the
// test with an explicit message when none is recorded.
func goldenSmall(t *testing.T) map[string]uint64 {
	t.Helper()
	tab, ok := goldenByArch[runtime.GOARCH]
	if !ok {
		t.Skipf("no golden checksum table recorded for GOARCH=%s (FMA contraction can change "+
			"float64 results per architecture); to pin this architecture, print RunSeq() for each "+
			"suite.Names() instance at suite.Small and add a table to goldenByArch", runtime.GOARCH)
	}
	return tab
}

// TestGoldenMatchesSeq checks the sequential reference of every benchmark
// against its checked-in checksum.
func TestGoldenMatchesSeq(t *testing.T) {
	golden := goldenSmall(t)
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			in, err := New(name, Small)
			if err != nil {
				t.Fatal(err)
			}
			want, ok := golden[name]
			if !ok {
				t.Fatalf("no golden checksum recorded for %q — add it", name)
			}
			if got := in.RunSeq(); got != want {
				t.Errorf("sequential %s = %#016x, golden %#016x", name, got, want)
			}
		})
	}
}

// TestGoldenSurvivesSchedulingPolicies runs every benchmark's OmpSs variant
// natively under each scheduling-policy configuration and checks the result
// against the golden checksum: a policy change that corrupts data — not
// just reorders it — fails against a constant, not against a possibly
// equally-corrupted reference rerun.
func TestGoldenSurvivesSchedulingPolicies(t *testing.T) {
	golden := goldenSmall(t)
	fifo := ompss.Tuning{Locality: ompss.Off}
	policies := []struct {
		name string
		opts []ompss.Option
	}{
		{"default", nil},
		{"fifo", []ompss.Option{ompss.WithTuning(fifo)}},
		{"blocking", []ompss.Option{ompss.Wait(ompss.Blocking)}},
		// Dependence renaming on: the suite's datums never call
		// EnableRenaming, so the knob must be behaviorally invisible here —
		// identical checksums with renaming on and off is an acceptance
		// criterion of the renaming work (the renameable-datum paths are
		// value-checked by ompss/rename_test.go and the fuzz battery).
		{"renaming", []ompss.Option{ompss.WithTuning(ompss.Tuning{Renaming: ompss.On})}},
		{"renaming-fifo", []ompss.Option{ompss.WithTuning(ompss.Tuning{Renaming: ompss.On}), ompss.WithTuning(fifo)}},
	}
	pool := poolcheck.Active()
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			want := golden[name]
			for _, pol := range policies {
				in, err := New(name, Small)
				if err != nil {
					t.Fatal(err)
				}
				out := pool.Outstanding()
				rt := ompss.New(append([]ompss.Option{ompss.Workers(3)}, pol.opts...)...)
				got := in.RunOmpSs(rt)
				rt.Shutdown()
				if got != want {
					t.Errorf("ompss/%s %s = %#016x, golden %#016x", pol.name, name, got, want)
				}
				if n := pool.Outstanding() - out; n != 0 {
					t.Errorf("ompss/%s %s: %d task records still out of the pool after Shutdown", pol.name, name, n)
				}
			}
		})
	}
}

// TestGoldenPthreads pins the Pthreads variant against the same table, so
// the manual-threading baseline cannot silently drift either.
func TestGoldenPthreads(t *testing.T) {
	golden := goldenSmall(t)
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			in, err := New(name, Small)
			if err != nil {
				t.Fatal(err)
			}
			api := pthread.Native(3)
			if got := in.RunPthreads(api.Main()); got != golden[name] {
				t.Errorf("pthreads %s = %#016x, golden %#016x", name, got, golden[name])
			}
		})
	}
}
