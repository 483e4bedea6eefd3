package rpc

import (
	"errors"
	"fmt"
	"time"

	"arbor/internal/transport"
)

// ErrOverloaded is the sentinel behind a replica's typed load-shed reply:
// the site's admission gate refused the request (queue full, saturated, or
// draining). Match it with errors.Is. Unlike ErrTimeout it arrives
// instantly and proves the site is alive, so callers should skip to
// another site without burning their deadline and without counting the
// site as failed.
var ErrOverloaded = errors.New("rpc: site overloaded")

// overloadedError carries the shedding site and its retry-after hint; it
// unwraps to ErrOverloaded, so errors.Is matches it.
type overloadedError struct {
	site       transport.Addr
	retryAfter time.Duration
}

func (e *overloadedError) Error() string {
	if e.retryAfter > 0 {
		return fmt.Sprintf("site %d: %v (retry after %s)", e.site, ErrOverloaded, e.retryAfter)
	}
	return fmt.Sprintf("site %d: %v", e.site, ErrOverloaded)
}

func (e *overloadedError) Unwrap() error { return ErrOverloaded }

// RetryAfter extracts the shedding replica's backoff hint from an
// ErrOverloaded error chain; ok is false when err carries none.
func RetryAfter(err error) (d time.Duration, ok bool) {
	var oe *overloadedError
	if errors.As(err, &oe) {
		return oe.retryAfter, true
	}
	return 0, false
}
