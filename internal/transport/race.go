//go:build race

package transport

// raceEnabled reports a -race build. Under it, sync.Pool drops a share of
// what is put back, so pooled paths allocate at random, and the frame reader
// overwrites every frame body once its handler returns, so a key view kept
// past the call reads garbage and races with that write.
const raceEnabled = true
