//go:build !race

package mapper

const raceEnabled = false
