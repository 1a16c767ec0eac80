//go:build race

package nn_test

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop items at random (the matmul panel scratch is pooled), so heap
// allocation counts measured under it say nothing about the code.
const raceEnabled = true
