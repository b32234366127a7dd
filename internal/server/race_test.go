//go:build race

package server

// raceEnabled gates the AllocsPerRun pin in pipeline_test.go: the race
// runtime allocates shadow state inside otherwise alloc-free code, so
// allocation bounds are only checkable without -race.
const raceEnabled = true
