package serve

import (
	"os"
	"testing"

	"ompssgo/internal/poolcheck"
)

// TestMain serves every test's requests with the runtime's record pool
// instrumented (see poolcheck): records are counted, which the session-churn
// soak checks, and poisoned as they go back to the pool.
func TestMain(m *testing.M) {
	poolcheck.Install(&poolcheck.Probe{Poison: true})
	os.Exit(m.Run())
}
