//go:build !race

package setcover

const raceEnabled = false
