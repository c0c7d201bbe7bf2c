//go:build race

package runio

func init() { raceEnabled = true }
