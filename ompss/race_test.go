//go:build race

package ompss

// raceDetector reports a -race build, under which sync.Pool drops a quarter
// of what it is given, so the record pool refills at random (see
// spawnAllocs).
const raceDetector = true
