//go:build !race

package ompss

// raceDetector reports a -race build (see race_test.go).
const raceDetector = false
