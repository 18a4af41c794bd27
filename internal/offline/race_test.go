//go:build race

package offline

func init() { raceEnabled = true }
