//go:build race

package setcover

// raceEnabled gates the AllocsPerRun pin in budget_test.go: the race
// runtime allocates shadow state inside otherwise alloc-free code, so
// the allocation contract is only checkable without -race.
const raceEnabled = true
