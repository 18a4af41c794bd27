//go:build race

package profiles

func init() { raceEnabled = true }
