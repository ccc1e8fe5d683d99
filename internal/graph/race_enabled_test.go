//go:build race

package graph

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation makes wall-clock ceilings meaningless.
const raceEnabled = true
