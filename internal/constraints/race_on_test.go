//go:build race

package constraints

const raceEnabled = true
