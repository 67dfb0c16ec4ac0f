//go:build race

package sim

// raceEnabled narrows the replay and cross-policy matrices to two mixes:
// they run no concurrent code of their own, and the race detector's
// slowdown would make the full matrices dominate the race suite.
const raceEnabled = true
