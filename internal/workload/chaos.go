package workload

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"recordlayer"
	"recordlayer/internal/core"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/keyspace"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/query"
	"recordlayer/internal/resource/lease"
	"recordlayer/internal/tuple"
)

// ChaosConfig sizes the fault-injection chaos run: a single-goroutine mixed
// workload (so every fault draw is deterministic per seed) against a cluster
// whose FaultInjector deals conflicts, stale reads, latency spikes, and
// maybe-committed commits, followed by a full consistency audit with the
// injector off. The run asserts the robustness invariants end to end: no
// acknowledged write is lost, no write from a cleanly-failed commit appears,
// indexes scrub clean, and lease slices never over-grant through heartbeat
// failures.
type ChaosConfig struct {
	// Writes is how many write operations the mixed workload issues, spread
	// round-robin over the three cohorts (default 240).
	Writes int
	// QueryEvery issues one zone query after every this many writes (default
	// 8) — range reads that absorb injected mid-scan errors.
	QueryEvery int
	// Seed drives the workload shape and the fault schedule.
	Seed int64
	// Faults overrides the injected fault mix; the zero value uses the chaos
	// defaults. The Seed field is always taken from Seed above.
	Faults fdb.FaultConfig
	// LeaseRounds is how many heartbeat rounds the lease-churn phase runs
	// (default 40).
	LeaseRounds int
	// LeaseServers is how many lease-coordinated governors churn (default 3).
	LeaseServers int
	// MisdeclareIncrements is a self-test knob: route the non-idempotent
	// counter increments through RunIdempotent anyway, so a maybe-committed
	// attempt that actually applied is blindly re-run and double-increments.
	// A correct harness must FAIL its Check with this set — it proves the
	// chaos gate has teeth.
	MisdeclareIncrements bool
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Writes <= 0 {
		c.Writes = 240
	}
	if c.QueryEvery <= 0 {
		c.QueryEvery = 8
	}
	if c.LeaseRounds <= 0 {
		c.LeaseRounds = 40
	}
	if c.LeaseServers <= 0 {
		c.LeaseServers = 3
	}
	if c.Faults == (fdb.FaultConfig{}) {
		c.Faults = fdb.FaultConfig{
			PCommitNotCommitted: 0.05,
			PCommitUnknown:      0.08,
			PReadTooOld:         0.03,
			PReadFuture:         0.02,
			PLatencySpike:       0.05,
			SpikeLatency:        2 * time.Millisecond,
		}
	}
	c.Faults.Seed = c.Seed
	return c
}

// chaosTenant owns the chaos store and the leased budget.
const chaosTenant = "chaos"

// counterID is the shared-counter record's primary key, outside the cohort
// id space (which starts at 0).
const counterID = int64(-1)

// ChaosStats is the whole chaos run's outcome; Check is the CI smoke gate.
type ChaosStats struct {
	Config ChaosConfig

	// Workload shape.
	Writes        int // write operations attempted (all cohorts)
	Queries       int // zone queries attempted
	QueryFailures int // queries that exhausted retries (reads only; no invariant)
	RowsRead      int

	// Write-fate cohorts. Acked writes were acknowledged to the "client";
	// Unknown writes ended maybe-committed (either fate is legal);
	// CleanFailed writes failed with a guarantee nothing was applied.
	Acked, Unknown, CleanFailed int
	// UnknownApplied counts maybe-committed writes that turned out durable.
	UnknownApplied int
	// LostAcks counts acknowledged writes that were missing or corrupt at
	// verification — must be zero.
	LostAcks int
	// Ghosts counts cleanly-failed writes that were present anyway — must be
	// zero.
	Ghosts int

	// Shared counter: incremented only through non-idempotent Run, so the
	// final value must satisfy CounterAcked <= CounterValue <=
	// CounterAcked+CounterUnknown. A runner that blindly retried
	// maybe-committed commits would double-increment and break the upper
	// bound.
	CounterAcked, CounterUnknown int
	CounterValue                 int64

	// Scrubber audit of the by_zone index after the storm.
	ScrubEntries, ScrubRecords, ScrubIssues int

	// Metering audit over the storm: what the chaos tenant was billed for
	// reads, and what the cluster actually read (the db.Metrics delta). Every
	// storm transaction is the tenant's, so the two must be equal — faults,
	// retries and aborted attempts included.
	MeteredReads, MeteredReadBytes int64
	ClusterReads, ClusterReadBytes int64

	// Fault schedule actually dealt.
	Faults fdb.FaultCounts
	// RetriesByCause merges the per-cause retry counters of every runner the
	// workload used.
	RetriesByCause map[string]int64

	// Lease churn phase.
	LeaseRounds          int
	LeaseRefreshFailures int // heartbeats killed by injected faults
	// LeaseSliceSumOK reports every sampled lease-table state kept
	// sum(live slices) <= the global limit.
	LeaseSliceSumOK bool
	// LeaseEnforcedSumOK reports the rates the live managers actually
	// enforced never summed past global*(1+servers*MinFraction) — decayed
	// holders sit at the floor, never at their stale slice.
	LeaseEnforcedSumOK bool
}

// Check returns an error describing every chaos invariant the run violated —
// the deterministic smoke gate CI runs (`cmd/experiments -run chaos -short`).
func (s ChaosStats) Check() error {
	var problems []string
	if s.Faults.Total() == 0 {
		problems = append(problems, "fault injector never fired; the run exercised nothing")
	}
	if s.Faults.CommitsUnknown == 0 {
		problems = append(problems, "no maybe-committed commit was injected; ambiguity handling untested")
	}
	if s.Acked == 0 {
		problems = append(problems, "no write was ever acknowledged")
	}
	if s.CleanFailed == 0 {
		problems = append(problems, "no write failed cleanly; the ghost invariant was untested")
	}
	if s.LostAcks > 0 {
		problems = append(problems, fmt.Sprintf(
			"%d of %d acknowledged writes were lost or corrupt", s.LostAcks, s.Acked))
	}
	if s.Ghosts > 0 {
		problems = append(problems, fmt.Sprintf(
			"%d ghost writes appeared from %d cleanly-failed commits", s.Ghosts, s.CleanFailed))
	}
	lo, hi := int64(s.CounterAcked), int64(s.CounterAcked+s.CounterUnknown)
	if s.CounterValue < lo || s.CounterValue > hi {
		problems = append(problems, fmt.Sprintf(
			"counter is %d, outside [acked=%d, acked+unknown=%d]: increments were lost or double-applied",
			s.CounterValue, lo, hi))
	}
	if s.ScrubIssues > 0 {
		problems = append(problems, fmt.Sprintf(
			"index scrub found %d inconsistencies after the storm", s.ScrubIssues))
	}
	if s.ClusterReads == 0 {
		problems = append(problems, "the storm read nothing; the metering audit was untested")
	}
	if s.MeteredReads != s.ClusterReads || s.MeteredReadBytes != s.ClusterReadBytes {
		problems = append(problems, fmt.Sprintf(
			"tenant billed %d reads/%d bytes, cluster read %d/%d: metered I/O != I/O performed",
			s.MeteredReads, s.MeteredReadBytes, s.ClusterReads, s.ClusterReadBytes))
	}
	if s.LeaseRefreshFailures == 0 {
		problems = append(problems, "no lease heartbeat failed; the decay path was untested")
	}
	if !s.LeaseSliceSumOK {
		problems = append(problems, "lease slices summed past the global limit during churn")
	}
	if !s.LeaseEnforcedSumOK {
		problems = append(problems, "enforced lease rates summed past the decay bound: a failed heartbeat over-granted")
	}
	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("chaos invariants violated:\n  - %s", strings.Join(problems, "\n  - "))
}

// chaosSchema is the Note schema with the audited by_zone VALUE index and the
// counter field.
func chaosSchema() (*message.Descriptor, *metadata.MetaData, error) {
	note := message.MustDescriptor("Note",
		message.Field("id", 1, message.TypeInt64),
		message.Field("zone", 2, message.TypeString),
		message.Field("body", 3, message.TypeString),
		message.Field("n", 4, message.TypeInt64),
	)
	md, err := metadata.NewBuilder(1).
		AddRecordType(note, keyexpr.Field("id")).
		AddIndex(&metadata.Index{Name: "by_zone", Type: metadata.IndexValue,
			Expression: keyexpr.Then(keyexpr.Field("zone"), keyexpr.Field("id"))}, "Note").
		Build()
	return note, md, err
}

// RunChaos runs the storm, the audit, and the lease churn, and returns the
// combined stats. The fault schedule, workload, and audit are all functions
// of cfg.Seed alone.
func RunChaos(ctx context.Context, cfg ChaosConfig) (ChaosStats, error) {
	cfg = cfg.withDefaults()
	stats := ChaosStats{Config: cfg, LeaseSliceSumOK: true, LeaseEnforcedSumOK: true}

	note, md, err := chaosSchema()
	if err != nil {
		return stats, err
	}
	ks, err := keyspace.New(nil,
		keyspace.NewConstant("app", "chaos").Add(
			keyspace.NewDirectory("tenant", keyspace.TypeString)))
	if err != nil {
		return stats, err
	}
	provider, err := recordlayer.NewStoreProvider(md, ks, []string{"app", "tenant"},
		recordlayer.ProviderOptions{})
	if err != nil {
		return stats, err
	}

	inj := fdb.NewFaultInjector(cfg.Faults)
	// A virtual latency model makes injected latency spikes take effect (the
	// clock is deterministic and never sleeps); instant backoff keeps the
	// storm wall-clock fast.
	db := fdb.Open(&fdb.Options{
		Latency: fdb.LatencyModel{PerRead: 20 * time.Microsecond, PerGRV: 40 * time.Microsecond,
			PerCommit: 60 * time.Microsecond, Virtual: true},
		Faults: inj,
		Sleep:  func(time.Duration) {},
	})
	instant := func(ctx context.Context, _ time.Duration) error { return ctx.Err() }
	// Cohort A writes get one attempt: retryable failures surface, so the
	// run accumulates writes with a hard "nothing applied" guarantee — the
	// ghost set the audit checks.
	acct := recordlayer.NewAccountant()
	strict := recordlayer.NewRunner(db, recordlayer.RunnerOptions{MaxAttempts: 1, Sleep: instant, Accountant: acct})
	runner := recordlayer.NewRunner(db, recordlayer.RunnerOptions{Sleep: instant, Accountant: acct})

	// Pre-create the store before the storm so directory allocation is not
	// subject to injected faults.
	inj.Disable()
	if _, err := runner.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		_, err := provider.Open(ctx, tr, chaosTenant)
		return nil, err
	}); err != nil {
		return stats, fmt.Errorf("workload: chaos pre-create: %w", err)
	}
	inj.Enable()

	// The storm: three interleaved cohorts plus periodic zone queries, one
	// goroutine, every payload generated outside the closures. Each runs as
	// the chaos tenant, so the Runners meter it.
	storm := recordlayer.WithTenant(ctx, chaosTenant)
	billed0, io0 := acct.Tenant(chaosTenant).Snapshot(), db.Metrics().Snapshot()
	rng := rand.New(rand.NewSource(cfg.Seed))
	acked := map[int64]string{}     // id -> expected body, write acknowledged
	unknown := map[int64]string{}   // id -> expected body, fate ambiguous
	cleanFailed := map[int64]bool{} // id -> true, guaranteed not applied
	save := func(r *recordlayer.Runner, rec *message.Message) error {
		_, err := r.Run(storm, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			store, err := provider.Open(ctx, tr, chaosTenant)
			if err != nil {
				return nil, err
			}
			_, err = store.SaveRecord(rec)
			return nil, err
		})
		return err
	}
	for i := 0; i < cfg.Writes; i++ {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		id := int64(i)
		zone := zones[rng.Intn(len(zones))]
		body := NoteBody(rng, 64+rng.Intn(192))
		stats.Writes++
		switch i % 3 {
		case 0: // Cohort A: single-attempt Run — acked, ambiguous, or cleanly failed.
			rec := message.New(note).MustSet("id", id).MustSet("zone", zone).MustSet("body", body)
			err := save(strict, rec)
			switch {
			case err == nil:
				acked[id] = body
			case recordlayer.IsMaybeCommitted(err):
				unknown[id] = body
			default:
				cleanFailed[id] = true
			}
		case 1: // Cohort B: retried as idempotent — ambiguity is retried through.
			rec := message.New(note).MustSet("id", id).MustSet("zone", zone).MustSet("body", body)
			//rl:idempotent re-saving the same pre-generated record converges to the same stored state
			_, err := runner.RunIdempotent(storm, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
				store, err := provider.Open(ctx, tr, chaosTenant)
				if err != nil {
					return nil, err
				}
				_, err = store.SaveRecord(rec)
				return nil, err
			})
			switch {
			case err == nil:
				acked[id] = body
			case recordlayer.IsMaybeCommitted(err):
				unknown[id] = body
			default:
				cleanFailed[id] = true
			}
		case 2: // Cohort C: non-idempotent read-modify-write counter increment.
			inc := func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
				store, err := provider.Open(ctx, tr, chaosTenant)
				if err != nil {
					return nil, err
				}
				n := int64(0)
				if old, err := store.LoadRecordByKey(tuple.Tuple{counterID}); err != nil {
					return nil, err
				} else if old != nil {
					if v, ok := old.Message.Get("n"); ok {
						n = v.(int64)
					}
				}
				rec := message.New(note).MustSet("id", counterID).
					MustSet("zone", "counter").MustSet("n", n+1)
				_, err = store.SaveRecord(rec)
				return nil, err
			}
			var err error
			if cfg.MisdeclareIncrements {
				//rl:idempotent deliberate misdeclaration — the self-test knob that must make Check fail by double-applying increments
				_, err = runner.RunIdempotent(storm, inc)
			} else {
				_, err = runner.Run(storm, inc)
			}
			switch {
			case err == nil:
				stats.CounterAcked++
			case recordlayer.IsMaybeCommitted(err):
				stats.CounterUnknown++
			}
		}
		if (i+1)%cfg.QueryEvery != 0 {
			continue
		}
		stats.Queries++
		q := query.RecordQuery{
			RecordTypes: []string{"Note"},
			Filter:      query.Field("zone").Equals(zone),
		}
		rows, err := runner.ReadRun(storm, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			store, err := provider.Open(ctx, tr, chaosTenant)
			if err != nil {
				return nil, err
			}
			cur, err := store.ExecuteQuery(ctx, q, recordlayer.ExecuteProperties{
				RowLimit: 50, ScanRecordLimit: 500, Snapshot: true,
			})
			if err != nil {
				return nil, err
			}
			n := 0
			err = cur.ForEach(func(*recordlayer.Record) error { n++; return nil })
			return n, err
		})
		if err != nil {
			// Reads carry no durability invariant; an exhausted retry budget
			// under the fault storm is tolerated and counted.
			stats.QueryFailures++
			continue
		}
		stats.RowsRead += rows.(int)
	}
	billed, read := acct.Tenant(chaosTenant).Snapshot(), db.Metrics().Snapshot().Delta(io0)
	stats.MeteredReads = billed.ReadRecords - billed0.ReadRecords
	stats.MeteredReadBytes = billed.ReadBytes - billed0.ReadBytes
	stats.ClusterReads, stats.ClusterReadBytes = read.KeysRead, read.BytesRead
	stats.Acked = len(acked)
	stats.Unknown = len(unknown)
	stats.CleanFailed = len(cleanFailed)
	stats.Faults = inj.Counts()
	stats.RetriesByCause = mergeCauses(strict.Metrics().RetriesByCause, runner.Metrics().RetriesByCause)

	// The audit: injector off, verify every cohort's fate against the store.
	inj.Disable()
	load := func(id int64) (*core.StoredRecord, error) {
		v, err := runner.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			store, err := provider.Open(ctx, tr, chaosTenant)
			if err != nil {
				return nil, err
			}
			return store.LoadRecordByKey(tuple.Tuple{id})
		})
		if err != nil {
			return nil, err
		}
		return v.(*core.StoredRecord), nil
	}
	body := func(rec *core.StoredRecord) string {
		if rec == nil {
			return ""
		}
		if v, ok := rec.Message.Get("body"); ok {
			return v.(string)
		}
		return ""
	}
	for id, want := range acked {
		rec, err := load(id)
		if err != nil {
			return stats, fmt.Errorf("workload: chaos audit load %d: %w", id, err)
		}
		if rec == nil || body(rec) != want {
			stats.LostAcks++
		}
	}
	for id, want := range unknown {
		rec, err := load(id)
		if err != nil {
			return stats, fmt.Errorf("workload: chaos audit load %d: %w", id, err)
		}
		if rec != nil {
			stats.UnknownApplied++
			// Either fate is legal, but a present record must be intact.
			if body(rec) != want {
				stats.LostAcks++
			}
		}
	}
	for id := range cleanFailed {
		rec, err := load(id)
		if err != nil {
			return stats, fmt.Errorf("workload: chaos audit load %d: %w", id, err)
		}
		if rec != nil {
			stats.Ghosts++
		}
	}
	if rec, err := load(counterID); err != nil {
		return stats, fmt.Errorf("workload: chaos audit counter: %w", err)
	} else if rec != nil {
		if v, ok := rec.Message.Get("n"); ok {
			stats.CounterValue = v.(int64)
		}
	}

	// Scrub the index the storm maintained, both directions.
	space, err := ks.MustPath("app").MustAdd("tenant", chaosTenant).ToSubspaceStatic()
	if err != nil {
		return stats, err
	}
	scr := &core.Scrubber{DB: db, MetaData: md, Space: space, IndexName: "by_zone", BatchSize: 32}
	rep, err := scr.Scrub(ctx)
	if err != nil {
		return stats, fmt.Errorf("workload: chaos scrub: %w", err)
	}
	stats.ScrubEntries = rep.EntriesScanned
	stats.ScrubRecords = rep.RecordsScanned
	stats.ScrubIssues = len(rep.Issues)

	// The lease churn phase runs on its own faulted cluster.
	if err := runChaosLeases(ctx, cfg, &stats); err != nil {
		return stats, err
	}
	return stats, nil
}

// runChaosLeases churns a fleet of lease-coordinated governors under injected
// heartbeat failures and a mid-run server crash, sampling the over-grant
// invariants every round on a deterministic manual clock.
func runChaosLeases(ctx context.Context, cfg ChaosConfig, stats *ChaosStats) error {
	fcfg := cfg.Faults
	fcfg.Seed = cfg.Seed + 1
	inj := fdb.NewFaultInjector(fcfg)
	db := fdb.Open(&fdb.Options{Faults: inj, Sleep: func(time.Duration) {}})

	limits := recordlayer.NewLimitsStore(db)
	global := recordlayer.TenantLimits{
		TxnPerSecond: 100, Burst: 10,
		BytesPerSecond: 1 << 20, ByteBurst: 64 << 10,
		MaxConcurrent: 2,
	}
	// Installing the budget is setup, not churn.
	inj.Disable()
	if err := limits.Set(ctx, chaosTenant, global); err != nil {
		return err
	}
	inj.Enable()

	// The phase runs on a manual clock: TTL expiry, reclaim, and decay are
	// exact functions of the round counter, never of wall time.
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	const ttl = 2 * time.Second
	leaseStore := recordlayer.NewQuotaLeaseStore(db)
	servers := cfg.LeaseServers
	mgrs := make([]*recordlayer.QuotaLeaseManager, servers)
	for i := range mgrs {
		gov := recordlayer.NewGovernor(recordlayer.NewAccountant(), recordlayer.GovernorOptions{})
		mgrs[i] = recordlayer.NewQuotaLeaseManager(gov, db, recordlayer.QuotaLeaseOptions{
			Server: fmt.Sprintf("chaos-%d", i),
			TTL:    ttl,
			Clock:  clock,
		})
	}

	rounds := cfg.LeaseRounds
	stats.LeaseRounds = rounds
	crashFrom, crashTo := rounds/3, 2*rounds/3
	// The decayed floor is uncoordinated (each failed server grants itself
	// MinFraction locally), so enforced rates may legitimately sum to
	// global*(1+servers*MinFraction); anything past that is an over-grant.
	enforcedBound := 1 + lease.MinFraction*float64(servers)
	for r := 0; r < rounds; r++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		now = now.Add(ttl / 4)
		liveMgrs := make([]*recordlayer.QuotaLeaseManager, 0, servers)
		for i, m := range mgrs {
			if i == servers-1 && r >= crashFrom && r < crashTo {
				continue // the last server "crashes": no heartbeat, no enforcement
			}
			liveMgrs = append(liveMgrs, m)
			if _, err := m.Refresh(ctx); err != nil {
				stats.LeaseRefreshFailures++
			}
		}
		rows, err := leaseStore.Live(ctx, chaosTenant, now)
		if err != nil {
			continue // an injected read fault killed the sample; next round
		}
		var sumTxn, sumBytes float64
		for _, row := range rows {
			sumTxn += row.Slice.Txn
			sumBytes += row.Slice.Bytes
		}
		if sumTxn > global.TxnPerSecond*1.0001 || sumBytes > global.BytesPerSecond*1.0001 {
			stats.LeaseSliceSumOK = false
		}
		var enfTxn, enfBytes float64
		for _, m := range liveMgrs {
			if s, ok := m.Held(chaosTenant); ok {
				enfTxn += s.Txn
				enfBytes += s.Bytes
			}
		}
		if enfTxn > global.TxnPerSecond*enforcedBound*1.0001 ||
			enfBytes > global.BytesPerSecond*enforcedBound*1.0001 {
			stats.LeaseEnforcedSumOK = false
		}
	}
	for _, m := range mgrs {
		m.Close(ctx)
	}
	return nil
}

// mergeCauses folds per-cause counter maps into one (nil when all empty).
func mergeCauses(ms ...map[string]int64) map[string]int64 {
	var out map[string]int64
	for _, m := range ms {
		for c, n := range m {
			if out == nil {
				out = make(map[string]int64, 8)
			}
			out[c] += n
		}
	}
	return out
}
