//go:build race

package service

// raceEnabled reports whether the tests run under the race detector, whose
// instrumentation makes allocation counts incomparable.
const raceEnabled = true
