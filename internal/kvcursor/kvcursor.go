// Package kvcursor adapts FoundationDB range reads to the streaming cursor
// model: a resumable cursor over a key range with resource-limit accounting.
// Its continuation is simply the last key returned, so any stateless server
// can resume the scan (§3.1).
package kvcursor

import (
	"bytes"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
)

// Options controls a range scan.
type Options struct {
	// Reverse scans in descending key order.
	Reverse bool
	// Snapshot performs snapshot reads (no read conflicts).
	Snapshot bool
	// Limiter enforces out-of-band resource limits (may be nil).
	Limiter *cursor.Limiter
	// Continuation resumes after a previously returned key.
	Continuation []byte
	// BatchSize bounds the first underlying GetRange (default 128). Later
	// batches grow exponentially up to MaxBatchSize — FDB's iterator mode —
	// so long scans stop paying a full range-read setup per 128 pairs.
	BatchSize int
	// MaxBatchSize caps the batch growth (default 4096). Set it equal to
	// BatchSize to disable growth.
	MaxBatchSize int

	// noReadAhead disables the speculative prefetch of the next batch; the
	// package's tests use it as the sequential baseline that read-ahead
	// must match byte for byte. By default the cursor issues the following
	// batch's range read as a future the moment the current batch arrives,
	// so the next fill's I/O latency overlaps with draining the buffer (§8).
	// For a transaction that does not write into the unscanned remainder of
	// the range mid-scan — every scan in the layer — results are
	// byte-identical either way; a transaction that does write ahead of the
	// cursor sees those writes one batch later than a sequential scan would
	// (futures resolve at issue; sequential scans already miss writes
	// landing inside their buffered batch, so same-range RYW mid-scan has
	// always been batch-granular). Read-ahead also makes the footprint
	// eager: the prefetched batch is read (conflict-ranged, counted in
	// TxnStats and charged to the transaction's meter) even if the consumer
	// halts inside the current one.
	noReadAhead bool
}

// Default batch sizing: start small so point-ish scans stay cheap, grow
// exponentially so long scans amortize per-batch costs.
const (
	DefaultBatchSize    = 128
	DefaultMaxBatchSize = 4096
)

type kvCursor struct {
	tr         *fdb.Transaction
	begin, end []byte
	opts       Options
	batch      int // next GetRange limit; doubles per fill up to MaxBatchSize
	buf        []fdb.KeyValue
	bufPos     int
	more       bool
	started    bool
	lastKey    []byte
	halted     *cursor.Result[fdb.KeyValue]
	pending    *fdb.FutureRange // read-ahead: the next batch, already issued
}

// New creates a cursor over [begin, end).
func New(tr *fdb.Transaction, begin, end []byte, opts Options) cursor.Cursor[fdb.KeyValue] {
	c := &kvCursor{tr: tr, begin: append([]byte(nil), begin...), end: append([]byte(nil), end...), opts: opts}
	if opts.BatchSize <= 0 {
		c.opts.BatchSize = DefaultBatchSize
	}
	if opts.MaxBatchSize <= 0 {
		c.opts.MaxBatchSize = DefaultMaxBatchSize
	}
	if c.opts.MaxBatchSize < c.opts.BatchSize {
		c.opts.MaxBatchSize = c.opts.BatchSize
	}
	c.batch = c.opts.BatchSize
	if len(opts.Continuation) > 0 {
		// The continuation is the last key previously returned.
		if !opts.Reverse {
			c.begin = fdb.KeyAfter(opts.Continuation)
		} else {
			c.end = append([]byte(nil), opts.Continuation...)
		}
	}
	return c
}

// issueBatch starts the range read for the next batch over the current
// bounds. The future's data resolves at issue, so the cursor is free to
// advance its begin/end buffers afterwards.
func (c *kvCursor) issueBatch() *fdb.FutureRange {
	ro := fdb.RangeOptions{Limit: c.batch, Reverse: c.opts.Reverse}
	if c.opts.Snapshot {
		return c.tr.Snapshot().GetRangeAsync(c.begin, c.end, ro)
	}
	return c.tr.GetRangeAsync(c.begin, c.end, ro)
}

func (c *kvCursor) fill() error {
	var kvs []fdb.KeyValue
	var more bool
	var err error
	if c.pending != nil {
		kvs, more, err = c.pending.Get()
		c.pending = nil
	} else {
		kvs, more, err = c.issueBatch().Get()
	}
	if err != nil {
		return err
	}
	c.buf, c.bufPos, c.more, c.started = kvs, 0, more, true
	if len(kvs) > 0 {
		// Advance the bound in place: begin/end are owned by the cursor
		// (copied at construction, and GetRange copies what it retains), so
		// refills reuse their backing arrays instead of reallocating.
		last := kvs[len(kvs)-1].Key
		if !c.opts.Reverse {
			c.begin = append(append(c.begin[:0], last...), 0x00)
		} else {
			c.end = append(c.end[:0], last...)
		}
	}
	if c.batch < c.opts.MaxBatchSize {
		c.batch *= 2
		if c.batch > c.opts.MaxBatchSize {
			c.batch = c.opts.MaxBatchSize
		}
	}
	if more && !c.opts.noReadAhead {
		// Issue the next batch now: its latency window elapses while the
		// consumer drains the batch just delivered.
		c.pending = c.issueBatch()
	}
	return nil
}

// Prefetch implements cursor.Prefetcher: when the buffer is drained and no
// read-ahead future is in flight, it issues the next batch's range read
// without awaiting it, so a composite parent can overlap this cursor's fill
// with its siblings'. Results are unchanged — Next's fill consumes the
// pending future exactly as if it had issued the read itself. The issued
// batch is one Next is already committed to reading, not a speculative
// extra, so the sequential baseline (noReadAhead) issues it too.
func (c *kvCursor) Prefetch() {
	if c.halted != nil || c.pending != nil || c.bufPos < len(c.buf) {
		return
	}
	if c.started && !c.more {
		return
	}
	if bytes.Compare(c.begin, c.end) >= 0 {
		return
	}
	c.pending = c.issueBatch()
}

// Next implements cursor.Cursor.
func (c *kvCursor) Next() (cursor.Result[fdb.KeyValue], error) {
	if c.halted != nil {
		return *c.halted, nil
	}
	if c.bufPos >= len(c.buf) {
		if c.started && !c.more {
			h := cursor.Result[fdb.KeyValue]{OK: false, Reason: cursor.SourceExhausted}
			c.halted = &h
			return h, nil
		}
		if bytes.Compare(c.begin, c.end) >= 0 {
			h := cursor.Result[fdb.KeyValue]{OK: false, Reason: cursor.SourceExhausted}
			c.halted = &h
			return h, nil
		}
		if err := c.fill(); err != nil {
			return cursor.Result[fdb.KeyValue]{}, err
		}
		if len(c.buf) == 0 {
			h := cursor.Result[fdb.KeyValue]{OK: false, Reason: cursor.SourceExhausted}
			c.halted = &h
			return h, nil
		}
	}
	kv := c.buf[c.bufPos]
	if reason, ok := c.opts.Limiter.TryRecord(len(kv.Key) + len(kv.Value)); !ok {
		h := cursor.Result[fdb.KeyValue]{OK: false, Reason: reason, Continuation: c.lastKey}
		c.halted = &h
		return h, nil
	}
	c.bufPos++
	// kv.Key is a fresh slice produced by GetRange for this cursor alone;
	// share it with the continuation rather than copying per pair. Keys are
	// treated as immutable throughout the layer.
	c.lastKey = kv.Key
	return cursor.Result[fdb.KeyValue]{Value: kv, OK: true, Continuation: c.lastKey}, nil
}
