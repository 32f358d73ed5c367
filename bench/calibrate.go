package main

import (
	"sort"
	"strconv"
	"time"
)

// Host-speed calibration.
//
// This host shares its cores with neighbours, and their load slows
// everything here by 10-50% for minutes at a time: whole runs of one
// commit and one seed come out uniformly slower, so no statistic taken
// inside a run sees through it. What does is a yardstick: a small fixed
// piece of work that has nothing to do with the program under test, run
// between stretches of the workload all through the run. The ratio of
// its median time to refNominalMS is the run's host factor (1.0 = the
// host at the speed refNominalMS was taken at, 1.3 = 30% slower), and
// every end-to-end timing is reported divided by it (throughput
// multiplied): milliseconds and seconds at nominal host speed. The raw
// values and the factor are printed beside them.
//
// The kernel is chosen to slow down the way the program does (hashing,
// probing, allocation, string building, sorting — memory and
// allocator, not only arithmetic): a pure arithmetic loop barely notices
// the neighbours that cost the engine a fifth of its speed. It lives in
// this directory, so a change to the program cannot move it; a change to
// it is a change to the benchmark and re-bases every number.

// refNominalMS is the kernel's median time on this host when quiet. It
// anchors the unit only: any other constant would scale every timing of
// every run alike.
const refNominalMS = 1.4

// How many times the kernel runs at each pause of the timed stretch, and
// after each set-up. A set-up is timed seven times and the timed stretch
// pauses dozens of times, so the set-ups take more runs each: in a small,
// young heap a third of the runs meet a garbage collection, and the
// median must not depend on how many of a handful did.
const (
	refReps      = 3
	refSetupReps = 9
)

type calibrator struct {
	ms   []float64
	keys []string
	sink int
}

// kernel is the fixed work: fill a map with strings built from
// scattered keys, collect and sort them.
func (c *calibrator) kernel() {
	m := make(map[int]string)
	for i := 0; i < 6000; i++ {
		m[i*7919%10007] = strconv.Itoa(i)
	}
	c.keys = c.keys[:0]
	for _, v := range m {
		c.keys = append(c.keys, v)
	}
	sort.Strings(c.keys)
	c.sink += len(c.keys[0])
}

// sample runs the kernel reps times and records each time.
func (c *calibrator) sample(reps int) {
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		c.kernel()
		c.ms = append(c.ms, float64(time.Since(t0))/1e6)
	}
}

// factor is the host's slowdown over the samples taken: the kernel's
// median time over its nominal time.
func (c *calibrator) factor() float64 {
	if len(c.ms) == 0 {
		return 1
	}
	return median(c.ms) / refNominalMS
}
