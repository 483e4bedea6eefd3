package client

import (
	"context"
	"errors"
	"fmt"
	"time"

	"arbor/internal/obs"
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
	t.c.budget.earnOp()

	traceKey := t.order[0]
	if len(t.order) > 1 {
		traceKey = fmt.Sprintf("%s (+%d keys)", traceKey, len(t.order)-1)
	}
	op := t.c.traces.Start("txn", traceKey, t.c.id)
	var start time.Time
	var contacts int
	if t.c.instr != nil {
		start = time.Now()
	}
	finish := func(outcome string, err error) {
		if t.c.instr != nil {
			t.c.instr.txnDur.Observe(time.Since(start))
			t.c.instr.ops.With("txn", outcome).Inc()
		}
		op.Finish(outcome, err, contacts)
	}

	// Per-key timestamps: cached read versions where available, fresh
	// version discovery otherwise.
	var itemBuf [8]commitItem // on the stack unless the transaction is large
	items := itemBuf[:0]
	for _, key := range t.order {
		base, ok := t.reads[key]
		if !ok {
			v, err := t.c.discoverVersion(ctx, key, op)
			if err != nil {
				err = fmt.Errorf("%w: version discovery for %q: %w", ErrWriteUnavailable, key, err)
				finish(obs.OutcomeUnavailable, err)
				return err
			}
			base = v
		}
		items = append(items, commitItem{key: key, value: t.writes[key], ts: replica.Timestamp{Version: base.TS.Version + 1, Site: t.c.id}})
	}

	var err error
	var orderBuf [maxStackLevels]int
	_, contacts, err = t.c.tryLevels(ctx, t.c.orderedLevels(t.levels, orderBuf[:0], -1), func(u int) (int, error) {
		return t.c.commitLevel(ctx, t.levels.addrs[u], u, items, op)
	})
	t.c.metrics.writeContacts.Add(uint64(contacts))
	switch {
	case err == nil:
		t.c.metrics.writes.Add(1)
		for _, it := range items {
			t.c.floors.put(keyHash(it.key), it.ts)
		}
		finish(obs.OutcomeOK, nil)
	case errors.Is(err, ErrInDoubt):
		t.c.metrics.writes.Add(1)
		finish(obs.OutcomeInDoubt, err)
	default:
		t.c.metrics.writeFailures.Add(1)
		err = fmt.Errorf("%w: %w", ErrTxnConflict, err)
		finish(obs.OutcomeConflict, err)
	}
	return err
}
