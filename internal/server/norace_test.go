//go:build !race

package server

// raceDetector is true under -race (see race_test.go).
const raceDetector = false
