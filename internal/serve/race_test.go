//go:build race

package serve

// raceDetector reports a -race build, under which sync.Pool drops a quarter
// of what it is given, so the runtime's record pool refills at random and
// allocation counts grow.
const raceDetector = true
