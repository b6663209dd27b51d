// Package fdb is a deterministic, in-process simulator of FoundationDB: an
// ordered, transactional key-value store with MVCC snapshot reads, optimistic
// concurrency control, atomic mutations, versionstamps, range clears, and the
// key/value/transaction size and time limits described in §2 of the Record
// Layer paper.
//
// The simulator implements the contract the Record Layer programs against —
// strictly-serializable transactions whose read conflict ranges are validated
// at commit time against the write ranges of concurrently committed
// transactions — so the layers built on top exercise the same code paths they
// would on a real cluster.
//
// The package also owns the layer's one retry loop, Database.Retry: every
// transactional closure runs there. It checks the ctx before each attempt,
// backs off, classifies each failure (Cause), records runner.attempt and
// runner.backoff spans into the ctx's obs.Trace, counts every retry in
// Metrics().Retries, and latches commit_unknown_result ambiguity into a
// *MaybeCommittedError. It runs under one of two policies. The Runner's
// foreground policy comes from RunnerOptions (10 attempts, 2 ms jittered
// backoff doubling to 250 ms by default), with admission and tenant metering
// around the loop. Background work — index builds, scrubs, lease heartbeats,
// metering export — calls Transact, ReadTransact or TransactIdempotent, which
// use a fixed policy: 101 attempts, 1 ms doubling to 64 ms with no jitter,
// slept through Options.Sleep.
package fdb

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Limits captures the keyspace and transaction limits FoundationDB enforces
// (§2: 10 kB keys, 100 kB values, 10 MB transactions, 5 s duration).
type Limits struct {
	MaxKeySize   int
	MaxValueSize int
	MaxTxnSize   int
	TxnTimeout   time.Duration
}

// DefaultLimits mirrors the production limits quoted in the paper.
func DefaultLimits() Limits {
	return Limits{
		MaxKeySize:   10_000,
		MaxValueSize: 100_000,
		MaxTxnSize:   10_000_000,
		TxnTimeout:   5 * time.Second,
	}
}

// Options configures a simulated database.
type Options struct {
	Limits Limits
	// Clock supplies wall-clock time for the transaction time limit; tests
	// inject a manual clock. Defaults to time.Now.
	Clock func() time.Time
	// VersionStep is the commit-version increment per commit. FoundationDB
	// advances versions by roughly one million per second; the default of 1
	// keeps versionstamps dense.
	VersionStep int64
	// ResolverWindow bounds how many recent commits are retained for
	// conflict resolution (stand-in for FDB's 5 second MVCC window).
	ResolverWindow int
	// SnapshotHistory bounds how many recent committed roots are retained so
	// that SetReadVersion (read-version caching, §4) can read slightly stale
	// snapshots.
	SnapshotHistory int
	// Sleep performs background-retry backoff and wall-clock latency waits;
	// tests inject a no-op or recorder. Defaults to time.Sleep.
	Sleep func(time.Duration)
	// Latency models per-read I/O latency (§8): every read — sync or async —
	// completes a read-cost after it was issued, and reads issued before
	// awaiting overlap within one window. The zero value keeps reads instant,
	// so existing callers and tests are unaffected.
	Latency LatencyModel
	// Faults, when non-nil, deals seeded deterministic failures into reads
	// and commits (see FaultInjector). Nil — the default — costs one pointer
	// check per operation: injection off must be free.
	Faults *FaultInjector
}

// LatencyModel prices simulated I/O: a fixed per-read cost (the network
// round trip) plus a per-KB cost on the key+value bytes returned (the
// transfer). A whole range-read batch pays one PerRead, which is what makes
// batched range scans cheaper than N point reads under the model. PerGRV and
// PerCommit price the transaction's bracketing round trips, so end-to-end
// transaction cost is GRV + overlapped reads + commit rather than reads alone.
type LatencyModel struct {
	PerRead time.Duration
	PerKB   time.Duration
	// PerGRV prices the read-version acquisition: the first real GRV call a
	// transaction performs delays every subsequent read (reads issued after
	// it still overlap with each other, so the GRV and first read windows
	// pipeline into one wait). SetReadVersion skips the GRV call and
	// therefore its cost — exactly the read-version-caching win of §4.
	PerGRV time.Duration
	// PerCommit prices a committing commit (one with writes): the commit
	// completes PerCommit after every issued read has resolved. Read-only
	// commits are client-side no-ops and stay free.
	PerCommit time.Duration
	// Virtual runs the latency clock as a deterministic in-process virtual
	// clock: awaiting a future advances the clock to the read's ready time
	// instead of sleeping, so tests assert exact window counts (via
	// TxnStats.SimWaitNanos) without wall-clock time passing. The
	// transaction *timeout* clock (Options.Clock) is unaffected.
	Virtual bool
}

// Enabled reports whether the model charges any latency at all.
func (m LatencyModel) Enabled() bool {
	return m.PerRead > 0 || m.PerKB > 0 || m.PerGRV > 0 || m.PerCommit > 0
}

// readCost prices one read returning nbytes of key+value data.
func (m LatencyModel) readCost(nbytes int) time.Duration {
	return m.PerRead + time.Duration(nbytes)*m.PerKB/1024
}

type commitRecord struct {
	version int64
	writes  []KeyRange
}

type versionedRoot struct {
	version int64
	root    *node
}

// Database is a simulated FoundationDB cluster: one ordered keyspace with
// transactional access.
type Database struct {
	mu      sync.Mutex
	opts    Options
	version int64
	root    *node
	recent  []commitRecord  // ascending by version; resolver window
	floor   int64           // newest version evicted from the resolver window
	history []versionedRoot // ascending by version; snapshot history
	metrics Metrics
	// background is the retry policy of Transact, ReadTransact and
	// TransactIdempotent.
	background Policy

	// vclock is the virtual latency clock (nanos) when Latency.Virtual is
	// set: awaits advance it monotonically instead of sleeping.
	vclock atomic.Int64
}

// Open creates an empty simulated database. A nil opts uses defaults.
func Open(opts *Options) *Database {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.Limits == (Limits{}) {
		o.Limits = DefaultLimits()
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	if o.VersionStep <= 0 {
		o.VersionStep = 1
	}
	if o.ResolverWindow <= 0 {
		o.ResolverWindow = 10_000
	}
	if o.SnapshotHistory <= 0 {
		o.SnapshotHistory = 64
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	return &Database{opts: o, background: Policy{
		MaxAttempts:    backgroundAttempts,
		InitialBackoff: backgroundBackoff,
		MaxBackoff:     backgroundMaxBackoff,
		Sleep: func(_ context.Context, d time.Duration) error {
			o.Sleep(d)
			return nil
		},
		Now: o.Clock,
	}}
}

// Metrics returns cumulative database-level counters.
func (d *Database) Metrics() *Metrics { return &d.metrics }

// simNow reads the latency clock: the virtual clock in virtual mode, the
// wall clock otherwise.
func (d *Database) simNow() int64 {
	if d.opts.Latency.Virtual {
		return d.vclock.Load()
	}
	return d.opts.Clock().UnixNano()
}

// LatencyNow exposes the latency clock's current reading (nanos) so tests
// and experiments can measure simulated elapsed time under the virtual clock.
func (d *Database) LatencyNow() int64 { return d.simNow() }

// waitUntil blocks until the latency clock reaches ready, returning the nanos
// actually waited. In virtual mode the clock jumps forward instead of
// sleeping; a ready time already in the past (an overlapped read) costs
// nothing either way.
func (d *Database) waitUntil(ready int64) int64 {
	if d.opts.Latency.Virtual {
		for {
			now := d.vclock.Load()
			if now >= ready {
				return 0
			}
			if d.vclock.CompareAndSwap(now, ready) {
				return ready - now
			}
		}
	}
	now := d.opts.Clock().UnixNano()
	if ready <= now {
		return 0
	}
	d.opts.Sleep(time.Duration(ready - now))
	return ready - now
}

// ReadVersion returns the latest committed version (the GRV result).
func (d *Database) ReadVersion() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.version
}

// CreateTransaction begins a new transaction. The read version is obtained
// lazily on first read (matching the real client's deferred GRV).
func (d *Database) CreateTransaction() *Transaction {
	d.metrics.TransactionsStarted.Add(1)
	return &Transaction{
		db:       d,
		txnState: txnState{start: d.nowNanos(), readVersion: -1},
	}
}

// grv performs a getReadVersion call: latest committed version and its root.
func (d *Database) grv() (int64, *node) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.metrics.GRVCalls.Add(1)
	return d.version, d.root
}

// snapshotAt returns the newest retained root with version <= v. The second
// result reports whether such a snapshot is still retained.
func (d *Database) snapshotAt(v int64) (*node, int64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if v >= d.version {
		return d.root, d.version, true
	}
	for i := len(d.history) - 1; i >= 0; i-- {
		if d.history[i].version <= v {
			return d.history[i].root, d.history[i].version, true
		}
	}
	return nil, 0, false
}

// commit validates the transaction's read conflict ranges against writes
// committed after its read version, then atomically applies its mutations.
func (d *Database) commit(t *Transaction) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()

	// Resolver: reject if any concurrently committed write range intersects
	// what this transaction read (with isolation, i.e. non-snapshot).
	if t.readConflicts.Len() > 0 {
		if t.readVersion < d.floor {
			// The resolver window no longer covers this read version.
			return 0, errCode(CodeTransactionTooOld, "read version %d predates resolver window", t.readVersion)
		}
		for i := len(d.recent) - 1; i >= 0; i-- {
			rec := d.recent[i]
			if rec.version <= t.readVersion {
				break
			}
			for _, w := range rec.writes {
				if t.readConflicts.Overlaps(w.Begin, w.End) {
					d.metrics.Conflicts.Add(1)
					return 0, errCode(CodeNotCommitted, "transaction conflict")
				}
			}
		}
	}

	// Fault injection happens after validation: a commit that would have
	// conflicted anyway reports the real conflict, so injected failures only
	// replace successes. For unknown-result the injector decides whether the
	// mutations genuinely apply — the client-visible error is identical
	// either way, which is the whole point of commit_unknown_result.
	if f := d.opts.Faults; f != nil {
		switch f.commitFault() {
		case commitFailNot:
			d.metrics.Conflicts.Add(1)
			return 0, errCode(CodeNotCommitted, "transaction conflict (injected)")
		case commitUnknownDropped:
			return 0, errCode(CodeCommitUnknownResult, "commit result unknown (injected)")
		case commitUnknownApplied:
			d.applyLocked(t)
			return 0, errCode(CodeCommitUnknownResult, "commit result unknown (injected)")
		}
	}

	return d.applyLocked(t), nil
}

// applyLocked applies a validated transaction's mutations atomically,
// returning the commit version. Caller holds d.mu.
func (d *Database) applyLocked(t *Transaction) int64 {
	commitVersion := d.version + d.opts.VersionStep
	root := t.applyTo(d.root, commitVersion)

	// Record write conflict ranges for future resolution.
	writes := t.writeConflictRanges(commitVersion)
	if len(writes) > 0 {
		d.recent = append(d.recent, commitRecord{version: commitVersion, writes: writes})
		if len(d.recent) > d.opts.ResolverWindow {
			evict := len(d.recent) - d.opts.ResolverWindow
			d.floor = d.recent[evict-1].version
			d.recent = d.recent[evict:]
		}
	}

	d.history = append(d.history, versionedRoot{version: d.version, root: d.root})
	if len(d.history) > d.opts.SnapshotHistory {
		d.history = d.history[len(d.history)-d.opts.SnapshotHistory:]
	}
	d.version = commitVersion
	d.root = root
	d.metrics.Commits.Add(1)
	return commitVersion
}

// Size returns the number of live keys in the user keyspace (for tests and
// experiments); system keys, which begin with 0xFF (MetadataVersionKey), are
// not counted.
func (d *Database) Size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.root.count()
	for it := newTreapIter(d.root, []byte{0xFF}, false); it.peek() != nil; it.next() {
		n--
	}
	return n
}

// Clear removes all data (test helper).
func (d *Database) Clear() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.root = nil
	d.recent = nil
	d.history = nil
}
