package ompss

// CancelCause lets the external test package wait until a concurrent Close
// or Cancel has reached the session before it acts on the outcome.
func (s *Session) CancelCause() error { return s.dom.CancelCause() }

// RaceDetector reports a -race build to the external test package.
const RaceDetector = raceDetector
