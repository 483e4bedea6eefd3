package client

import (
	"context"
	"errors"
	"fmt"

	"arbor/internal/replica"
)

// Txn is a client-side transaction: a partially ordered set of reads and
// writes (the paper's system model) executed with all-or-nothing commit.
// Reads go through read quorums immediately (and see the transaction's own
// buffered writes); writes are buffered and installed atomically at commit
// by a single two-phase commit across all physical nodes of one physical
// level, covering every written key.
//
// Transactions provide failure atomicity — either every buffered write is
// durably installed or none is. They do not provide snapshot isolation for
// independent readers, who may observe the keys of a committing transaction
// at slightly different instants.
type Txn struct {
	c      *Client
	levels *levelTable
	writes map[string][]byte
	order  []string
	reads  map[string]ReadResult
	done   bool
}

// Errors specific to transactions.
var (
	// ErrTxnDone means the transaction has already committed or aborted.
	ErrTxnDone = errors.New("client: transaction finished")
	// ErrTxnConflict means commit could not prepare every key on any
	// physical level (a concurrent writer holds locks or installed newer
	// versions).
	ErrTxnConflict = errors.New("client: transaction conflict")
)

// NewTxn starts a transaction. The transaction is pinned to the protocol
// configuration current at creation.
func (c *Client) NewTxn() *Txn {
	return &Txn{
		c:      c,
		levels: c.levels.Load(),
		writes: make(map[string][]byte),
		reads:  make(map[string]ReadResult),
	}
}

// Read returns the transaction's view of key: its own buffered write if
// present, the previously read value if cached (repeatable reads), or a
// fresh quorum read.
func (t *Txn) Read(ctx context.Context, key string) ([]byte, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	if v, ok := t.writes[key]; ok {
		out := make([]byte, len(v))
		copy(out, v)
		return out, nil
	}
	if r, ok := t.reads[key]; ok {
		if !r.Found {
			return nil, ErrNotFound
		}
		return r.Value, nil
	}
	r, err := t.c.Read(ctx, key)
	if err != nil && !errors.Is(err, ErrNotFound) {
		return nil, err
	}
	t.reads[key] = r
	if !r.Found {
		return nil, ErrNotFound
	}
	return r.Value, nil
}

// Write buffers a value; nothing reaches the replicas until Commit.
func (t *Txn) Write(key string, value []byte) error {
	if t.done {
		return ErrTxnDone
	}
	if _, ok := t.writes[key]; !ok {
		t.order = append(t.order, key)
	}
	v := make([]byte, len(value))
	copy(v, value)
	t.writes[key] = v
	return nil
}

// Abort discards the transaction's buffered writes.
func (t *Txn) Abort() {
	t.done = true
}

// Commit atomically installs every buffered write: it discovers current
// versions, then runs one two-phase commit covering all written keys on
// the physical nodes of a single physical level (falling back across
// levels). Either all keys commit or none do.
func (t *Txn) Commit(ctx context.Context) error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	if len(t.writes) == 0 {
		return nil
	}
	traceKey := t.order[0]
	if len(t.order) > 1 {
		traceKey = fmt.Sprintf("%s (+%d keys)", traceKey, len(t.order)-1)
	}
	r := t.c.begin(opTxn, traceKey)

	// Per-key timestamps: cached read versions where available, fresh
	// version discovery otherwise.
	var itemBuf [8]commitItem // on the stack unless the transaction is large
	items := itemBuf[:0]
	var err error
	for _, key := range t.order {
		base, ok := t.reads[key]
		if !ok {
			base, err = t.c.discoverVersion(ctx, key, r.op)
			r.contacts += base.Contacts
			if err != nil {
				err = fmt.Errorf("%w: version discovery for %q: %w", ErrWriteUnavailable, key, err)
				break
			}
		}
		items = append(items, commitItem{key: key, value: t.writes[key], ts: replica.Timestamp{Version: base.TS.Version + 1, Site: t.c.id}})
	}
	_, err = t.c.commit(ctx, &r, t.levels, nil, items, err)
	return err
}
