package suite

import (
	"os"
	"testing"

	"ompssgo/internal/poolcheck"
)

// TestMain runs the golden batteries with the runtime's record pool
// instrumented (see poolcheck): records are counted, and poisoned as they go
// back to the pool, so a kernel that ran a recycled task would fail its
// checksum or panic.
func TestMain(m *testing.M) {
	poolcheck.Install(&poolcheck.Probe{Poison: true})
	os.Exit(m.Run())
}
