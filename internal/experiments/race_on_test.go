//go:build race

package experiments

// raceEnabled narrows TestDeterminismAcrossJobs to a representative
// artifact subset: the race detector's ~10x slowdown makes the full
// registry sweep impractical, and the subset still exercises every
// scheduler path (plain, threaded, multi-config warm batches, and the
// recordings that exact batches replay from).
const raceEnabled = true
