//go:build race

package realnet

// raceEnabled reports a -race build, whose sync.Pool drops a random share of
// Puts by design, so allocation counts of pooled paths are meaningless.
const raceEnabled = true
