//go:build race

package explore

// raceEnabled reports whether the race detector is on: its pools drop a
// quarter of their puts, which allocation bounds must absorb.
const raceEnabled = true
