//go:build !race

package split

const raceEnabled = false
