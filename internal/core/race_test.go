//go:build race

package core

// raceEnabled gates the AllocsPerRun pin in vmax_test.go: the race
// runtime allocates shadow state of its own, so allocation counts are
// only checkable without -race.
const raceEnabled = true
