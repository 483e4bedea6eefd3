//go:build race

package transport

// raceEnabled reports a -race build, under which sync.Pool drops a share of
// what is put back, so pooled paths allocate at random.
const raceEnabled = true
