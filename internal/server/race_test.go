//go:build race

package server

// raceDetector is true under -race, whose instrumentation allocates on
// the request path as well: a 51,000-answer response takes 8.5 MB there
// against 6.5 MB in a plain build, so the byte guard picks a looser bound.
const raceDetector = true
