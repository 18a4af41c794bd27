//go:build race

package analysis

func init() { raceEnabled = true }
