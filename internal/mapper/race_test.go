//go:build race

package mapper

// raceEnabled scales the differential test down under the race detector,
// where the int32 DP oracle runs an order of magnitude slower.
const raceEnabled = true
