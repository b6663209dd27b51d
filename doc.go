// Package recordlayer is a from-scratch Go reproduction of the FoundationDB
// Record Layer (Chrysafis et al., SIGMOD 2019): a record-oriented, massively
// multi-tenant structured datastore built on an ordered transactional
// key-value store.
//
// This package is the public façade. It has five pillars:
//
//   - Runner: the foreground policy over the layer's one retry loop (§5,
//     fdb.Database.Retry): bounded attempts, exponential backoff with
//     jitter, retryable-error classification, and context
//     cancellation/deadline propagation, plus the façade's own tenant
//     admission, per-attempt tenant metering and per-runner metrics.
//   - StoreProvider: multi-tenant routing — a schema, store configuration,
//     and keyspace path template bound together so one call opens a
//     tenant's record store inside a transaction.
//   - ExecuteProperties: the per-request limit taxonomy (§8.2) — row limit,
//     scanned-record/byte limits, a time budget defaulted from the context
//     deadline, snapshot isolation, and the continuation to resume from.
//   - Fluent query execution: Store.ExecuteQuery plans declarative queries
//     through a shared LRU plan cache (the client-side "SQL PREPARE" idiom,
//     Appendix C) and returns a RecordCursor with ForEach/ToList and
//     continuation accessors.
//   - Resource governance: per-tenant metering (Accountant) and admission
//     control (Governor) arbitrate the shared cluster *between* tenants —
//     transaction-rate and byte-rate quotas, concurrency ceilings, priority
//     classes, and limits persisted in the database so every stateless
//     server enforces the same numbers (§1, §5 "millions of tenant
//     stores").
//
// The essential workflow:
//
//	db := fdb.Open(nil)
//	runner := recordlayer.NewRunner(db, recordlayer.RunnerOptions{})
//	ks, _ := keyspace.New(nil,
//		keyspace.NewConstant("app", "myapp").Add(
//			keyspace.NewDirectory("user", keyspace.TypeInt64)))
//	provider, _ := recordlayer.NewStoreProvider(md, ks,
//		[]string{"app", "user"}, recordlayer.ProviderOptions{})
//
//	_, err := runner.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
//		store, err := provider.Open(ctx, tr, userID)
//		if err != nil {
//			return nil, err
//		}
//		return store.SaveRecord(rec)
//	})
//
// Queries stream under per-request limits and resume across transactions by
// continuation, keeping every server stateless (§3.1):
//
//	props := recordlayer.ExecuteProperties{RowLimit: 10, ScanRecordLimit: 1000}
//	for {
//		res, _ := runner.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
//			store, err := provider.Open(ctx, tr, userID)
//			if err != nil {
//				return nil, err
//			}
//			cur, err := store.ExecuteQuery(ctx, q, props)
//			if err != nil {
//				return nil, err
//			}
//			if err := cur.ForEach(handle); err != nil {
//				return nil, err
//			}
//			return cur, nil
//		})
//		cur := res.(*recordlayer.RecordCursor)
//		if cur.Exhausted() {
//			break
//		}
//		props = props.WithContinuation(cur.Continuation())
//	}
//
// # The query hot path: covering indexes and pipelined fetches
//
// An index scan normally resolves each entry to its record with a point
// range-read — the N+1 the paper's engine avoids two ways, both implemented
// here.
//
// Covering index plans (§6, Appendix A): declare the fields you will read
// with Query.Select, and when every one of them — plus any residual filter
// fields — is reconstructible from the index entry (its key columns, the
// KeyWithValue covering values, and the appended primary key), the planner
// synthesizes partial records straight from the entries. Zero record-subspace
// reads; on a 50-entry scan that is 51 range reads down to 1. The plan string
// makes the choice visible:
//
//	q := recordlayer.Query{
//		RecordTypes: []string{"U"},
//		Filter:      query.Field("name").BeginsWith("user-0002"),
//	}.Select("name", "id")
//	pl, _ := store.Plan(q)
//	fmt.Println(pl) // Covering(Index(by_name ["user-0002" - "user-0003")))
//
// without the projection the same query plans as Index(by_name ...), and a
// residual filter renders as Filter(age > 30 | Covering(Index(...))).
// Synthesized records carry the projected, residual, and primary-key fields
// only — no record version, zero Size — which is the contract Select opts
// into. Covering is refused (falling back to fetching) for fan-out indexes
// (duplicate entries per record), fields no entry column provides, nested or
// one-of-them fields, and queries not pinned to a single record type. Ties
// between equally-selective indexes prefer the covering-capable one, and a
// projected query with no usable filter still plans an index-only scan
// instead of a full record scan.
//
// Pipelined fetches (§8): plans that do fetch records keep up to
// ExecuteProperties.PipelineDepth record reads in flight behind the index
// scan (default 8; 1 restores strictly sequential fetching). Results are
// byte-identical to sequential execution — order, halt reasons, and
// continuations included — only the fetch latency overlaps. Scan limits
// charge per record scanned, and a limit smaller than a single record's
// key-value footprint still admits one record per execution, so paging
// always makes progress (§8.2's "first record is always admitted").
//
// # Asynchrony and the latency model
//
// The FDB client is asynchronous at its core: every read returns a future,
// and the layer's performance story (§8) is issuing many reads before
// awaiting any, so K outstanding reads cost one network round trip rather
// than K. The simulator reproduces that contract. Transaction.GetAsync and
// GetRangeAsync (plus Snapshot variants) resolve their data at issue time —
// the MVCC snapshot is fixed, so the answer is already determined — and
// defer only the simulated I/O wait to Future.Get. With a latency model
// configured (fdb.Options.Latency: a per-read base cost plus a per-KB
// transfer cost), each read completes one read-cost after it was issued;
// futures issued back-to-back therefore share a window, while
// issue-await-issue-await loops pay one window per read. Latency.Virtual
// runs the latency clock as a deterministic in-process virtual clock (awaits
// jump it forward instead of sleeping), so tests assert exact window
// arithmetic; TxnStats.SimWaitNanos and InFlightHighWater make the achieved
// overlap observable. The default model is zero cost: reads resolve
// instantly and nothing is tracked.
//
// The layer exploits the futures end-to-end; no hot read path is serial.
// Index-scan record fetches issue up to PipelineDepth range reads ahead of
// the consumer on a single goroutine (cursor.MapAsync — no worker
// goroutines, so depth 8 costs the same as depth 1 when reads are instant).
// Range scans prefetch their next batch while the current one drains
// (kvcursor read-ahead, always on; results are byte-identical to a
// sequential scan). Rank reads (Rank, RankOfValue, ByRank, and ScanByRank's
// seek) each cost one round trip per skip-list level: the descent reads a
// level's finger in one range read, and Rank overlaps its membership probe
// with it.
//
// Index maintenance itself is two-phase: every maintainer implements
// UpdateAsync(ctx, old, new), which issues the maintenance's probe reads
// (uniqueness checks, skip-list floor lookups for RANK, token-bunch reads
// for TEXT) and returns a Pending whose Await resolves them and applies the
// writes; the synchronous Update is just UpdateAsync+Await. The batched
// write path — Store.SaveRecords — rides that split: it issues all N
// old-record loads as concurrent futures, then collects every record's
// Pendings before awaiting any, so the entire batch's index probes share
// one latency window instead of paying one per record (the benchmark gap is
// BenchmarkIndexHeavySave loop50 vs batch50). Store.InsertRecord skips the
// old-record load entirely for caller-asserted-new rows, substituting a
// conflict-checked existence probe.
//
// Merge plans pipeline across children the same way. Union and Intersection
// cursors implement a Prefetch protocol: before peeking any drained child,
// a merge step first re-issues the next batch fetch on every child that
// needs one, so a K-way merge pays one shared window per step rather than
// K sequential ones (BenchmarkMergeQuery). Results stay byte-identical to
// the serial drain — order, halt reasons, and continuations included. The
// I/O does not: a prefetched batch the merge never takes was still read, so
// it is counted and billed (see "Resource governance").
// Under `go test -bench . -args -latency 100us`, scripts/bench.sh records
// both the instant-read and the latency-profile numbers in BENCH_8.json.
//
// # Store-state cache
//
// Every open checks the store header against the schema and needs every
// index's lifecycle state (§5, §6). A cold open reads the header and the
// whole index-state subspace together, in one round trip. Each
// StoreProvider also keeps a store-state cache of those reads, validated by
// FoundationDB's metadata-version key (\xff/metadataVersion), as the Java
// Record Layer does. The key's value comes back with the GRV reply, so
// checking it costs no round trip: a warm open waits out the GRV and issues
// no read at all, and index scans, rank and text lookups and saves never
// read index state. Every header or index-state write — store creation,
// schema upgrade, SetUserVersion, the MarkIndex calls, DeleteAllRecords,
// StoreProvider.Delete — sets the key to its commit versionstamp. An entry
// is served only to transactions that see the version it was read at, so a
// hit returns exactly what a read would have. A hit still adds read
// conflicts on the header and index-state keys, so a concurrent state
// change aborts the transaction at commit, as it would have with the reads.
// A transaction that has bumped the key neither reads nor fills the cache.
//
// The trade-off: the key is global. Any store-state change anywhere — one
// tenant's index marked readable, one store created or deleted — invalidates
// every entry in every server's cache, and the next open of each store pays
// the read again. The cache suits what CloudKit sees: very many stores whose
// schema and index states rarely change. A deployment whose stores are
// created or change index state constantly gains little.
// StoreProvider.StoreStateCacheStats and the store_state_cache_* metric
// families report hits, misses and invalidations.
//
// # Resource governance
//
// Bind a tenant identity to the request context and give the Runner a
// Governor; everything below meters automatically. The Runner binds the
// tenant's meter to each attempt's fdb.Transaction (Transaction.SetMeter),
// and the transaction charges it at the one place it counts its own I/O
// (TxnStats), so no layer above carries a meter:
//
//	acct := recordlayer.NewAccountant()
//	gov := recordlayer.NewGovernor(acct, recordlayer.GovernorOptions{TotalConcurrent: 64})
//	gov.SetLimits("tenant-7", recordlayer.TenantLimits{
//		TxnPerSecond: 100, Burst: 20, MaxConcurrent: 4, Weight: 1,
//	})
//	runner := recordlayer.NewRunner(db, recordlayer.RunnerOptions{Governor: gov})
//
//	ctx = recordlayer.WithTenant(ctx, "tenant-7")
//	_, err := runner.Run(ctx, work) // admission, then metered execution
//
// A tenant over its token-bucket quotas fails fast with a typed
// *QuotaExceededError; the recommended backoff is to wait its RetryAfter
// (with jitter) before retrying:
//
//	var qe *recordlayer.QuotaExceededError
//	if errors.As(err, &qe) {
//		time.Sleep(qe.RetryAfter)
//		// retry
//	}
//
// A tenant is charged for what the cluster does on its behalf, not for what
// its code consumes:
//
//   - every pair a read call makes the cluster read, as ReadRecords and
//     key+value ReadBytes — including read-ahead batches no cursor consumes,
//     snapshot reads, and reads in attempts that later abort and retry;
//   - a point read that finds no key, as 1 row of its key bytes;
//   - a rank seek (ByRank, ScanByRank) reads, and is billed for, the whole
//     skip-list finger at each level, including entries past the target;
//   - every buffered mutation when it is issued, as WriteRecords and
//     key+value WriteBytes (so a later overwrite in the same transaction is
//     charged again); a range clear is 1 row of its begin and end key bytes;
//   - nothing for reads the transaction's own write buffer serves.
//
// For a transaction that touches one tenant, the tenant's Usage therefore
// equals the transaction's TxnStats: ReadRecords == KeysRead, ReadBytes ==
// BytesRead, WriteRecords == Mutations and WriteBytes == Size.
//
// Two buckets exist per tenant. TxnPerSecond/Burst bounds admissions;
// BytesPerSecond/ByteBurst bounds the bytes the tenant actually reads and
// writes — the transaction feeds its byte counts through the tenant's Meter
// into the governor post-hoc, so a transaction can overdraw the bucket into
// debt and further admissions are rejected until refill clears it. The
// error's Resource field names the drained bucket.
//
// A tenant over its concurrency ceiling (or a full cluster) waits instead:
// queued admissions are granted weighted-fairly — lowest in-flight share
// relative to TenantLimits.Weight first — so a hot tenant cannot starve the
// rest. Admissions carry a priority class (WithPriority): background work
// is granted only capacity no foreground waiter wants, and PaceFromGovernor
// turns that into an OnlineIndexer.Pace hook so index builds throttle under
// tenant load.
//
// Quotas persist in the database rather than in any process: write them
// through NewLimitsStore(db) (or `rl tenants set-limits`), and every
// server's Governor applies the shared table via LoadLimits or a
// WatchLimits refresh loop. Per-tenant in-memory state is bounded:
// GovernorOptions.IdleTTL (and Accountant.EvictIdle) evict long-idle
// tenants whose buckets have refilled, so a server tracking millions of
// tenants does not grow without bound — and eviction never forgets a
// drained quota.
//
// Operators read usage with Accountant.Snapshot (see `rl tenants`) or the
// copy-free ForEach, and a StoreProvider with ProviderOptions.Accountant
// binds a meter to a transaction that has none, so it meters traffic even
// for requests that bypass the Runner's tenant binding.
// The noisy-neighbor experiment (cmd/experiments -run nn; -short is the CI
// smoke gate) measures the isolation all of this buys.
//
// # Distributed governance and metering export
//
// A shared limits table alone still over-grants: every server refills the
// full TxnPerSecond for itself, so a tenant spraying N servers gets N× its
// budget. Quota leases close that gap. Each server runs a QuotaLeaseManager
// whose heartbeat claims a time-bounded slice of every rate-limited tenant's
// global budget as a lease row in the reserved keyspace
// ("/__system__/limits/leases", keyed tenant then server):
//
//	mgr := recordlayer.NewQuotaLeaseManager(gov, db, recordlayer.QuotaLeaseOptions{
//		Server: hostID, TTL: 10 * time.Second,
//	})
//	go mgr.Run(ctx, 2*time.Second) // reload limits + renew leases; Close releases
//
// The lease lifecycle: a claim reads the tenant's whole lease range in one
// serializable transaction (so concurrent claimers conflict rather than
// double-grant), reclaims any row whose TTL has lapsed — a crashed server's
// slice returns to the pool within one TTL, no coordinator involved — and
// writes its own row with a fresh expiry. The governor's bucket then refills
// from the held slice, not the global rate, and a heartbeat renewal never
// refreshes a drained bucket's balance.
//
// The rebalance policy is demand-proportional: each row publishes the demand
// its server measured over the last window (admission attempts per second;
// quota rejections bid for double the current slice so a throttled server
// grows multiplicatively). A claim targets global×own/(own+peers), split
// equally when nobody reports demand, floored at 5% of the global rate so an
// idle server can serve its first request without a round trip, and capped
// at whatever the live peers have not claimed — the slice sum never exceeds
// the global budget, so the cluster-wide grant stays single. Hot servers
// converge toward the whole budget in a few heartbeats; idle slices decay to
// the floor and return to the pool.
//
// The export side turns the Accountant into billing-grade records. A
// UsageExporter (NewUsageExporter) periodically writes each tenant's
// consumption delta since the last export as a versionstamped row in the
// reserved metering directory ("/__system__/metering", keyed tenant then
// commit versionstamp, so windows from any number of servers interleave
// without coordination). MeteringStore.Report aggregates the windows into
// per-tenant totals plus a cross-tenant sum, and `rl usage` prints that
// report: one row per tenant — transactions, reads, read bytes/records,
// writes, write bytes/records, conflicts, throttles — then the cross-tenant
// TOTAL row, i.e. the MTBase-style aggregation query over all tenants'
// metering data. The distributed noisy-neighbor phase (cmd/experiments -run
// nn) runs three lease-coordinated governors against one aggressor and
// asserts it stays within ~1.1× its global cap while the exported windows
// reconcile exactly with the live accountants.
//
// # Observability
//
// Every layer is instrumented through internal/obs, and everything is off
// until asked for — each hot path pays exactly one nil check when no sink is
// installed (the CI bench gate holds the zero-latency overhead under 2%).
//
// Traces: attach a Trace to the context and every transaction the Runner
// executes under it records spans — admission queueing (runner.admit), each
// attempt and backoff, GRV, every read split into its issue window (fdb.read)
// and the await that actually blocked (fdb.await), per-index maintenance
// (index.<name>), and the commit. Spans are priced by the same clock as the
// latency model — the virtual clock when Latency.Virtual is on — so tests
// assert span arithmetic exactly: a depth-8 pipelined fetch traces as eight
// fdb.read spans sharing one issue window resolved by a single fdb.await.
//
//	trace := recordlayer.NewTrace()
//	ctx = recordlayer.WithTrace(ctx, trace)
//	_, _ = runner.ReadRun(ctx, work)
//	fmt.Println(trace.Summary()) // fdb.read=9×100µs fdb.grv=1×0s ...
//
// Query execution stats: Store.ExplainQuery is EXPLAIN ANALYZE — it executes
// the plan to exhaustion (following its own continuations page by page) and
// renders the plan tree annotated per node with pages, rows in/out, simulator
// reads/bytes, and simulated wait, plus the transaction-level totals. The
// covering-vs-fetch gap is visible as exactly 100 vs 300 leaf reads on the
// benchmark query. A StoreProvider with ProviderOptions.SlowQueries installed
// logs any execution over its ExecuteProperties.SlowQueryThreshold — plan
// string, elapsed, rows, halt reason, and the trace summary when one is
// attached — into a bounded ring (`NewSlowQueryLog`), and feeds a latency
// histogram either way.
//
// Metrics: a pull-based MetricsRegistry renders Prometheus text exposition.
// RegisterDatabaseMetrics, RegisterRunnerMetrics, RegisterGovernorMetrics,
// RegisterAccountantMetrics, and StoreProvider.RegisterMetrics cover the
// simulator's I/O counters, the retry loop, admission/quota decisions and
// lease slices, per-tenant consumption, and the plan cache
// (hits/misses/evictions/size, with per-entry hit counts via
// PlanCacheEntries and `rl plans`). Collectors read the live sources at
// scrape time, so a scrape at rest reconciles exactly with
// Accountant.Snapshot. `rl metrics` runs a governed workload and dumps the
// full exposition.
//
// # Fault injection and recovery
//
// The simulator deals its own failures, FoundationDB-simulation style
// (§2.1): give fdb.Options.Faults a seeded FaultInjector and it injects
// not_committed conflicts at commit, transaction_too_old and future_version
// mid-scan, latency spikes (when a latency model is on), and — the
// interesting one — commit_unknown_result (1021), where the commit genuinely
// may or may not have applied; the injector decides durably either way and
// reports only ambiguity. The schedule is a pure function of the seed and
// the operation sequence, so any failure replays exactly. Off means off:
// with no injector configured, no fault path executes and the hot paths pay
// nothing (the bench gate enforces it).
//
// Error semantics split three ways, and the façade exposes the split. There
// is one retry loop (fdb.Database.Retry), so they hold for every
// transaction: Runner requests and background work (index builds, scrubs,
// lease heartbeats, metering export) alike. IsRetryable errors (conflicts,
// stale reads, timeouts) guarantee nothing was committed, so the loop
// retries them blindly. IsMaybeCommitted errors guarantee nothing — blind
// retry could apply a write twice — so plain Run (and Database.Transact)
// surfaces them after the failing attempt as a typed *MaybeCommittedError.
// Ambiguity is sticky: once any attempt ends maybe-committed, every later
// terminal outcome (retry exhaustion, an application error) still reports
// MaybeCommittedError, because a clean failure on attempt 3 cannot un-apply
// attempt 1's possible commit. Callers whose closures converge under
// re-execution — blind constant writes, progress-keyed batches,
// compare-and-repair — opt into retrying ambiguity per call with
// RunIdempotent (background work: Database.TransactIdempotent); the rl-vet
// `idempotent` analyzer makes every such opt-in carry a written reason.
// Runner.Metrics breaks retries and failures down by cause (conflict,
// too_old, future_version, timeout, quota, maybe_committed), and the metrics
// registry exports the same labels. Every attempt of a ctx carrying a trace
// (WithTrace) records a runner.attempt span with its cause, background
// transactions included.
//
// The recovery paths are built to survive exactly these faults: the
// OnlineIndexer's batches are progress-keyed so a maybe-committed batch
// re-runs into convergence, and a QuotaLeaseManager whose heartbeat ends
// maybe-committed drops the tenant to the floor slice immediately — the
// lease row may hold a different grant than the one it remembers, and
// enforcing a stale larger slice would over-grant the cluster.
//
// Scrubber is the §6-style defense in depth behind all of it: a
// bidirectional index consistency check (every physical entry points at a
// record still producing it; every entry a record produces exists with the
// right covering value) in bounded snapshot-read batches resumed by
// continuation, with an idempotent Repair mode (`rl scrub` demonstrates
// corruption, detection, repair). The chaos harness (cmd/experiments -run
// chaos; -short is the CI gate) runs a mixed workload under a fault storm
// over three pinned seeds and asserts the end-to-end invariants: no
// acknowledged write lost, no ghost write from a cleanly-failed commit, a
// shared counter within [acked, acked+unknown], indexes scrub clean, and
// lease slices within the decay bound — and its self-test proves the gate
// fails when idempotency is misdeclared.
//
// The implementation lives under internal/: the FoundationDB simulator
// (internal/fdb), the tuple, subspace, directory and keyspace layers, a
// dynamic protobuf (internal/message), schema management
// (internal/metadata), key expressions (internal/keyexpr), index maintainers
// (internal/index), the record store itself (internal/core), query planning
// (internal/query, internal/plan), resource governance (internal/resource),
// tracing/metrics/query-stats plumbing (internal/obs),
// the CloudKit layer (internal/cloudkit) and the Cassandra baseline
// (internal/cassandra).
//
// # Invariants
//
// The conventions the layers depend on are mechanically enforced, not just
// documented: closures that reach the retry loop (any func literal passed
// as an fdb.TransactFunc) must be safe to re-execute on conflict retry, every GetAsync/GetRangeAsync future must
// be awaited on all paths, library code must thread the caller's context
// and injected clock rather than reaching for context.Background or
// time.Now, obs recording calls must hide behind a nil check so
// observability-off costs one pointer compare, and every opt-in to retrying
// maybe-committed commits must carry a reasoned //rl:idempotent directive.
// cmd/rl-vet (a stdlib-only go/analysis-style suite in internal/lint) checks
// all six invariants over the whole tree in CI; LINTING.md documents each
// analyzer, its fixture, and the reasoned //lint:allow audit trail.
//
// ROADMAP.md holds the project's aims and open items, CHANGES.md the record
// of each change, and cloudbench/README.md the end-to-end benchmark. The
// root bench_test.go regenerates each paper experiment as a Go benchmark;
// cmd/experiments prints them in the paper's format.
package recordlayer
