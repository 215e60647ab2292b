//go:build race

package tokenizer

// raceEnabled reports a -race build, whose sync.Pool drops a share of the
// buffers put back on purpose, so allocation counts are not pinned.
const raceEnabled = true
