//go:build !race

package realnet

const raceEnabled = false
