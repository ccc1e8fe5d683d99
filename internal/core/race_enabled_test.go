//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation (and sync.Pool's deliberate put-dropping under race)
// makes allocation counts meaningless.
const raceEnabled = true
