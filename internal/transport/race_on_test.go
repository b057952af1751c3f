//go:build race

package transport

// raceDetector reports whether the tests run under -race, whose
// instrumentation allocates on the transport's loop goroutines.
const raceDetector = true
