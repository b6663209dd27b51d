package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"recordlayer"
	"recordlayer/internal/core"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/keyspace"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
)

// NoisyConfig sizes the noisy-neighbor experiment: N well-behaved tenants
// issuing small steady transactions share a cluster with one aggressor
// hammering large writes. Phases run on fresh clusters — the victims alone
// (baseline), victims plus aggressor ungoverned, and then under successive
// governance mechanisms: a txn-rate quota, a byte-rate quota, quotas
// persisted in a LimitsStore and loaded by two independent Governors (two
// "stateless servers"), quota leases splitting the aggressor's *global*
// budget across three lease-coordinated governors, and a background online
// index build yielding to foreground traffic — so the experiment isolates
// what each mechanism buys (§1, §5: fair multi-tenancy).
type NoisyConfig struct {
	// Victims is the number of well-behaved tenants (default 4).
	Victims int
	// AggressorWorkers is the aggressor's write concurrency (default 8).
	AggressorWorkers int
	// Phase is how long each phase runs (default 500ms).
	Phase time.Duration
	// AggressorRate is the aggressor's governed quota in txn/s (default 40).
	AggressorRate float64
	// AggressorBurst is the governed token-bucket depth (default 4).
	AggressorBurst int
	// AggressorByteRate is the byte-hog phase's quota in bytes/s (default
	// 256 KiB/s).
	AggressorByteRate float64
	// AggressorByteBurst is the byte bucket depth (default 64 KiB).
	AggressorByteBurst int64
	// IndexRecords pre-populates the background-index phase's bulk store
	// (default 1200).
	IndexRecords int
	// Seed shapes the record payloads.
	Seed int64
	// Clock is the experiment's time source; tests inject a manual clock so
	// phase deadlines are exact. Defaults to time.Now.
	Clock func() time.Time
	// Sleep performs quota-rejection backoff waits; tests inject a recorder
	// or no-op. Defaults to time.Sleep.
	Sleep func(time.Duration)
}

func (c NoisyConfig) withDefaults() NoisyConfig {
	if c.Victims <= 0 {
		c.Victims = 4
	}
	if c.AggressorWorkers <= 0 {
		c.AggressorWorkers = 8
	}
	if c.Phase <= 0 {
		c.Phase = 500 * time.Millisecond
	}
	if c.AggressorRate <= 0 {
		c.AggressorRate = 40
	}
	if c.AggressorBurst <= 0 {
		c.AggressorBurst = 4
	}
	if c.AggressorByteRate <= 0 {
		c.AggressorByteRate = 256 << 10
	}
	if c.AggressorByteBurst <= 0 {
		c.AggressorByteBurst = 64 << 10
	}
	if c.IndexRecords <= 0 {
		c.IndexRecords = 1200
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// TenantResult is one tenant's outcome in one phase.
type TenantResult struct {
	Tenant     string
	Txns       int
	Bytes      int64 // read+write bytes the Accountant charged the tenant
	Rejections int64
	Throughput float64 // successful txn/s
	P50, P95   time.Duration
}

// NoisyPhase is one phase's outcome.
type NoisyPhase struct {
	Name      string
	Tenants   []TenantResult // victims first (sorted), aggressor last if present
	VictimP50 time.Duration  // pooled victim latency median
	VictimP95 time.Duration
	Elapsed   time.Duration // measured wall time of the phase's worker loops
	Indexed   int           // records the background index build processed
	// IO is the phase's database-level I/O delta (fdb Snapshot/Delta over the
	// worker loops): what the whole phase — victims, aggressor, index build —
	// cost the cluster, independent of per-tenant accounting.
	IO fdb.MetricsSnapshot
}

// NoisyStats is the whole experiment's outcome.
type NoisyStats struct {
	Config      NoisyConfig
	Baseline    NoisyPhase // victims only
	Ungoverned  NoisyPhase // + aggressor, no governor
	Governed    NoisyPhase // + aggressor, txn-rate quota caps it
	ByteHog     NoisyPhase // + aggressor, byte-rate quota caps it
	Persisted   NoisyPhase // + aggressor, quotas via LimitsStore into 2 governors
	Distributed NoisyPhase // + aggressor across 3 governors sharing quota leases
	BgIndex     NoisyPhase // victims + background online index build

	// AggressorCap is the maximum admissions the governed aggressor's
	// txn-rate quota allows in one phase (burst + rate·phase).
	AggressorCap float64
	// ByteBudget is the byte-hog phase's drainable budget over its measured
	// elapsed time (byte burst + byte rate·elapsed).
	ByteBudget int64
	// ByteCapped reports the aggressor's accounted bytes stayed near
	// ByteBudget (within slack for post-hoc debt and metering overshoot).
	ByteCapped bool
	// SharedLimitsConsistent reports both store-fed governors saw identical
	// non-zero limits for the aggressor with no in-process SetLimits call.
	SharedLimitsConsistent bool
	// Isolated reports the txn-governed victims' p50 stayed within 2x of
	// their aggressor-free baseline.
	Isolated bool
	// BgIsolated reports victims' p50 during the background index build
	// stayed within 2x of baseline (the demonstration target is ~1.2x; the
	// pass bound is looser because p50 on a loaded CI machine is noisy).
	BgIsolated bool

	// DistributedCap is the maximum admissions the aggressor's *global* txn
	// quota allows in the distributed phase: the global burst (plus one
	// token of rounding per server's scaled slice burst) plus rate·elapsed.
	// Because the lease slices never sum past the global rate, three
	// governors together cannot admit more than this — the whole point of
	// the phase.
	DistributedCap float64
	// DistributedByteBudget is the distributed phase's drainable global byte
	// budget (byte burst + byte rate·elapsed).
	DistributedByteBudget int64
	// DistributedByteCapped reports the aggressor's accounted bytes across
	// all three servers stayed within the global byte budget's bound.
	DistributedByteCapped bool
	// LeaseSliceSumOK reports every mid-phase sample of the lease table kept
	// sum(slices) <= the global limit for both resources.
	LeaseSliceSumOK bool
	// ExportConsistent reports the metering report (per-tenant rows exported
	// by all three servers) exactly matched the live Accountant snapshots.
	ExportConsistent bool
}

// aggressor tenant ID; victims are "victim-0".."victim-N".
const aggressorTenant = "aggressor"

// bulkTenant owns the store the background index build walks.
const bulkTenant = "bulk"

// The workload shapes. byteCapBound derives the smoke gate's pass/fail line
// from these, so tuning the aggressor cannot silently skew the CI gate.
const (
	victimRecsPerTxn    = 3
	victimRecSize       = 200
	aggressorRecsPerTxn = 12
	aggressorRecSize    = 4096
	// byteQuotaConcurrency is the byte-hog aggressor's MaxConcurrent: each
	// in-flight transaction admitted while the bucket was still positive
	// can overshoot the budget by one transaction's bytes.
	byteQuotaConcurrency = 2
	// writeAmplification pads one transaction's payload bytes up to what
	// the store layers actually charge (record chunks, versions, keys).
	writeAmplification = 3
	// distServers is how many lease-coordinated governors the distributed
	// phase spreads the aggressor across.
	distServers = 3
	// distMaxBackoff caps a distributed-phase worker's quota backoff: a cold
	// server's lease slice starts near zero, and sleeping out a RetryAfter
	// computed from that starvation-level rate would idle the worker past
	// the very rebalance that grows the slice.
	distMaxBackoff = 20 * time.Millisecond
)

// RunNoisyNeighbor runs every phase and evaluates the isolation criteria.
func RunNoisyNeighbor(ctx context.Context, cfg NoisyConfig) (NoisyStats, error) {
	cfg = cfg.withDefaults()
	stats := NoisyStats{Config: cfg}
	stats.AggressorCap = float64(cfg.AggressorBurst) + cfg.AggressorRate*cfg.Phase.Seconds()

	var err error
	if stats.Baseline, err = runNoisyPhase(ctx, cfg, noisySpec{name: "baseline"}); err != nil {
		return stats, err
	}
	if stats.Ungoverned, err = runNoisyPhase(ctx, cfg, noisySpec{name: "ungoverned", withAggressor: true}); err != nil {
		return stats, err
	}
	if stats.Governed, err = runNoisyPhase(ctx, cfg, noisySpec{name: "governed", withAggressor: true, txnQuota: true}); err != nil {
		return stats, err
	}
	if stats.ByteHog, err = runNoisyPhase(ctx, cfg, noisySpec{name: "byte-hog", withAggressor: true, byteQuota: true}); err != nil {
		return stats, err
	}
	var consistent bool
	if stats.Persisted, consistent, err = runPersistedPhase(ctx, cfg); err != nil {
		return stats, err
	}
	stats.SharedLimitsConsistent = consistent
	var dist distOutcome
	if stats.Distributed, dist, err = runDistributedPhase(ctx, cfg); err != nil {
		return stats, err
	}
	stats.LeaseSliceSumOK = dist.sliceSumOK
	stats.ExportConsistent = dist.exportConsistent
	if stats.BgIndex, err = runNoisyPhase(ctx, cfg, noisySpec{name: "bg-index", bgIndex: true}); err != nil {
		return stats, err
	}

	stats.ByteBudget = cfg.AggressorByteBurst +
		int64(cfg.AggressorByteRate*stats.ByteHog.Elapsed.Seconds())
	stats.ByteCapped = aggressorOf(stats.ByteHog).Bytes <= byteCapBound(stats.ByteBudget)
	stats.DistributedCap = float64(cfg.AggressorBurst+distServers) +
		cfg.AggressorRate*stats.Distributed.Elapsed.Seconds()
	stats.DistributedByteBudget = cfg.AggressorByteBurst +
		int64(cfg.AggressorByteRate*stats.Distributed.Elapsed.Seconds())
	stats.DistributedByteCapped = aggressorOf(stats.Distributed).Bytes <= distByteCapBound(stats.DistributedByteBudget)
	stats.Isolated = stats.Baseline.VictimP50 > 0 &&
		stats.Governed.VictimP50 <= 2*stats.Baseline.VictimP50
	stats.BgIsolated = stats.Baseline.VictimP50 > 0 &&
		stats.BgIndex.VictimP50 <= 2*stats.Baseline.VictimP50
	return stats, nil
}

// byteCapBound is the most bytes a correctly byte-governed aggressor can be
// charged: the drainable budget, plus post-hoc debt overshoot from
// transactions admitted while the bucket was still positive (bounded by the
// concurrency ceiling times one transaction's bytes), with 25% slack for
// scheduling jitter in elapsed-time measurement.
func byteCapBound(budget int64) int64 {
	perTxn := int64(aggressorRecsPerTxn * aggressorRecSize * writeAmplification)
	return budget + budget/4 + byteQuotaConcurrency*perTxn
}

// distByteCapBound is the distributed phase's byte ceiling: the global
// budget with ~1.1x slack (the acceptance bound — lease slices never sum
// past the global rate), plus post-hoc debt overshoot from each server's
// in-flight transactions (every server runs its own MaxConcurrent ceiling).
func distByteCapBound(budget int64) int64 {
	perTxn := int64(aggressorRecsPerTxn * aggressorRecSize * writeAmplification)
	return budget + budget/10 + distServers*byteQuotaConcurrency*perTxn
}

// aggressorOf returns the aggressor's row in a phase (zero row if absent).
func aggressorOf(p NoisyPhase) TenantResult {
	for _, t := range p.Tenants {
		if t.Tenant == aggressorTenant {
			return t
		}
	}
	return TenantResult{}
}

// Check returns an error describing every governance invariant the run
// violated — the deterministic smoke gate CI runs (`cmd/experiments -run nn
// -short`). Latency-ratio checks use generous bounds; the quota-cap and
// shared-limits checks are tight because the token buckets are exact.
func (s NoisyStats) Check() error {
	var problems []string
	if a := aggressorOf(s.Governed); float64(a.Txns) > s.AggressorCap*1.25+2 {
		problems = append(problems, fmt.Sprintf(
			"txn-governed aggressor ran %d txns, quota cap %.0f", a.Txns, s.AggressorCap))
	}
	if !s.ByteCapped {
		problems = append(problems, fmt.Sprintf(
			"byte-governed aggressor charged %d bytes, budget %d (bound %d)",
			aggressorOf(s.ByteHog).Bytes, s.ByteBudget, byteCapBound(s.ByteBudget)))
	}
	if !s.SharedLimitsConsistent {
		problems = append(problems, "store-fed governors disagreed on persisted limits")
	}
	// The persisted phase halves rate and burst per server, so the two
	// servers' combined budget is ~AggressorCap (+1 for burst rounding) —
	// a regression that applied the unhalved rate would double it and trip
	// this bound.
	if a := aggressorOf(s.Persisted); float64(a.Txns) > (s.AggressorCap+1)*1.25+4 {
		problems = append(problems, fmt.Sprintf(
			"persisted-limits aggressor ran %d txns across 2 servers, combined cap ~%.0f", a.Txns, s.AggressorCap))
	}
	// The distributed bound is the acceptance criterion: an aggressor spread
	// over 3 lease-coordinated governors stays within ~1.1x its *global*
	// caps — without leases each server would grant the full budget and the
	// aggressor would run at ~3x.
	if a := aggressorOf(s.Distributed); float64(a.Txns) > s.DistributedCap*1.1+2 {
		problems = append(problems, fmt.Sprintf(
			"distributed aggressor ran %d txns across %d servers, global cap %.0f",
			a.Txns, distServers, s.DistributedCap))
	}
	if !s.DistributedByteCapped {
		problems = append(problems, fmt.Sprintf(
			"distributed aggressor charged %d bytes, global budget %d (bound %d)",
			aggressorOf(s.Distributed).Bytes, s.DistributedByteBudget,
			distByteCapBound(s.DistributedByteBudget)))
	}
	if !s.LeaseSliceSumOK {
		problems = append(problems, "lease slices summed past the global limit")
	}
	if !s.ExportConsistent {
		problems = append(problems, "metering report disagreed with the live accountants")
	}
	for _, p := range []NoisyPhase{s.Baseline, s.Governed, s.ByteHog, s.Persisted, s.Distributed, s.BgIndex} {
		victims := 0
		for _, t := range p.Tenants {
			if t.Tenant != aggressorTenant {
				victims += t.Txns
			}
		}
		if victims == 0 {
			problems = append(problems, fmt.Sprintf("phase %s: victims made no progress", p.Name))
		}
	}
	if s.BgIndex.Indexed == 0 {
		problems = append(problems, "background index build made no progress")
	}
	if s.Baseline.VictimP50 > 0 && s.BgIndex.VictimP50 > 3*s.Baseline.VictimP50 {
		problems = append(problems, fmt.Sprintf(
			"background index build tripled victim p50: %v vs baseline %v",
			s.BgIndex.VictimP50, s.Baseline.VictimP50))
	}
	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("noisy-neighbor invariants violated:\n  - %s", strings.Join(problems, "\n  - "))
}

// noisySchema is the shared Note-style schema.
func noisySchema() (*message.Descriptor, *metadata.MetaData, error) {
	note := message.MustDescriptor("Note",
		message.Field("id", 1, message.TypeInt64),
		message.Field("body", 2, message.TypeString),
	)
	md, err := metadata.NewBuilder(1).
		AddRecordType(note, keyexpr.Field("id")).
		Build()
	return note, md, err
}

// noisySchemaV2 adds the by_body index the background build constructs.
func noisySchemaV2(note *message.Descriptor) (*metadata.MetaData, error) {
	return metadata.NewBuilder(2).
		AddRecordType(note, keyexpr.Field("id")).
		AddIndex(&metadata.Index{Name: "by_body", Type: metadata.IndexValue,
			Expression:   keyexpr.Then(keyexpr.Field("body"), keyexpr.Field("id")),
			AddedVersion: 2}, "Note").
		Build()
}

// noisySpec selects one phase's mechanisms.
type noisySpec struct {
	name          string
	withAggressor bool
	txnQuota      bool // aggressor capped by a txn-rate bucket (SetLimits)
	byteQuota     bool // aggressor capped by a byte-rate bucket (SetLimits)
	bgIndex       bool // an online index build runs at background priority
}

// noisyCluster is one fresh simulated cluster with its schema and keyspace.
type noisyCluster struct {
	note     *message.Descriptor
	md       *metadata.MetaData
	ks       *keyspace.KeySpace
	provider *recordlayer.StoreProvider
	db       *fdb.Database
}

func newNoisyCluster() (*noisyCluster, error) {
	note, md, err := noisySchema()
	if err != nil {
		return nil, err
	}
	ks, err := keyspace.New(nil,
		keyspace.NewConstant("app", "noisy").Add(
			keyspace.NewDirectory("tenant", keyspace.TypeString)))
	if err != nil {
		return nil, err
	}
	provider, err := recordlayer.NewStoreProvider(md, ks, []string{"app", "tenant"},
		recordlayer.ProviderOptions{})
	if err != nil {
		return nil, err
	}
	return &noisyCluster{note: note, md: md, ks: ks, provider: provider, db: fdb.Open(nil)}, nil
}

// worker is one load generator's tally.
type worker struct {
	tenant    string
	runner    *recordlayer.Runner
	txns      int
	latencies []time.Duration
	err       error
	// maxBackoff, when set, caps the quota-rejection backoff (see
	// distMaxBackoff). Zero trusts RetryAfter unconditionally.
	maxBackoff time.Duration
	// clock and sleep come from NoisyConfig so the loops run on the
	// experiment's injected time source.
	clock func() time.Time
	sleep func(time.Duration)
}

// run loops transactions until the deadline, backing off on quota
// rejections as a well-behaved client would.
func (w *worker) run(ctx context.Context, c *noisyCluster, deadline time.Time,
	seed int64, recsPerTxn, recSize int, record bool, wg *sync.WaitGroup) {
	defer wg.Done()
	rng := rand.New(rand.NewSource(seed))
	tctx := recordlayer.WithTenant(ctx, w.tenant)
	// Distinct id ranges per worker keep tenants conflict-free with
	// themselves.
	id := seed << 32
	for w.clock().Before(deadline) && ctx.Err() == nil {
		start := w.clock()
		recs := make([]*message.Message, recsPerTxn)
		for j := range recs {
			recs[j] = message.New(c.note).
				MustSet("id", id+int64(j)).
				MustSet("body", NoteBody(rng, recSize))
		}
		_, err := w.runner.Run(tctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			store, err := c.provider.Open(ctx, tr, w.tenant)
			if err != nil {
				return nil, err
			}
			for _, rec := range recs {
				if _, err := store.SaveRecord(rec); err != nil {
					return nil, err
				}
			}
			return nil, nil
		})
		id += int64(recsPerTxn)
		if err != nil {
			var qe *recordlayer.QuotaExceededError
			if errors.As(err, &qe) {
				// The recommended backoff: wait out the quota window.
				pause := qe.RetryAfter
				if w.maxBackoff > 0 && pause > w.maxBackoff {
					pause = w.maxBackoff
				}
				if rest := deadline.Sub(w.clock()); pause > rest {
					pause = rest
				}
				w.sleep(pause)
				continue
			}
			w.err = err
			return
		}
		w.txns++
		if record {
			w.latencies = append(w.latencies, w.clock().Sub(start))
		}
	}
}

// precreate opens every tenant's store once so the measured loops never race
// on directory allocation for the same path.
func precreate(ctx context.Context, c *noisyCluster, runner *recordlayer.Runner, tenants []string) error {
	for _, tenant := range tenants {
		tctx := recordlayer.WithTenant(ctx, tenant)
		if _, err := runner.Run(tctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			_, err := c.provider.Open(ctx, tr, tenant)
			return nil, err
		}); err != nil {
			return fmt.Errorf("workload: pre-create %s: %w", tenant, err)
		}
	}
	return nil
}

// mergePhase folds per-worker tallies into the phase result, pulling
// rejection and byte counts from the accountants.
func mergePhase(name string, cfg NoisyConfig, workers []*worker, elapsed time.Duration,
	accts ...*recordlayer.Accountant) (NoisyPhase, error) {
	byTenant := map[string]*TenantResult{}
	pooled := map[string][]time.Duration{}
	for _, w := range workers {
		if w.err != nil {
			return NoisyPhase{}, fmt.Errorf("workload: %s worker: %w", w.tenant, w.err)
		}
		tr, ok := byTenant[w.tenant]
		if !ok {
			tr = &TenantResult{Tenant: w.tenant}
			byTenant[w.tenant] = tr
		}
		tr.Txns += w.txns
		pooled[w.tenant] = append(pooled[w.tenant], w.latencies...)
	}
	phase := NoisyPhase{Name: name, Elapsed: elapsed}
	var victimLat []time.Duration
	names := make([]string, 0, len(byTenant))
	for t := range byTenant {
		names = append(names, t)
	}
	sort.Strings(names)
	// Aggressor row last for readable tables.
	sort.SliceStable(names, func(i, j int) bool {
		return (names[i] != aggressorTenant) && (names[j] == aggressorTenant)
	})
	for _, t := range names {
		tr := byTenant[t]
		tr.Throughput = float64(tr.Txns) / elapsed.Seconds()
		for _, acct := range accts {
			u := acct.Tenant(t).Snapshot()
			tr.Rejections += u.Rejected
			tr.Bytes += u.ReadBytes + u.WriteBytes
		}
		tr.P50, tr.P95 = percentiles(pooled[t])
		if t != aggressorTenant {
			victimLat = append(victimLat, pooled[t]...)
		}
		phase.Tenants = append(phase.Tenants, *tr)
	}
	phase.VictimP50, phase.VictimP95 = percentiles(victimLat)
	return phase, nil
}

func runNoisyPhase(ctx context.Context, cfg NoisyConfig, spec noisySpec) (NoisyPhase, error) {
	c, err := newNoisyCluster()
	if err != nil {
		return NoisyPhase{}, err
	}
	acct := recordlayer.NewAccountant()
	opts := recordlayer.RunnerOptions{Accountant: acct}
	var gov *recordlayer.Governor
	switch {
	case spec.txnQuota:
		gov = recordlayer.NewGovernor(acct, recordlayer.GovernorOptions{})
		gov.SetLimits(aggressorTenant, recordlayer.TenantLimits{
			TxnPerSecond:  cfg.AggressorRate,
			Burst:         cfg.AggressorBurst,
			MaxConcurrent: 1,
		})
	case spec.byteQuota:
		gov = recordlayer.NewGovernor(acct, recordlayer.GovernorOptions{})
		gov.SetLimits(aggressorTenant, recordlayer.TenantLimits{
			BytesPerSecond: cfg.AggressorByteRate,
			ByteBurst:      cfg.AggressorByteBurst,
			MaxConcurrent:  byteQuotaConcurrency,
		})
	case spec.bgIndex:
		// Tight capacity so the background build actually contends with the
		// foreground victims instead of running beside them.
		gov = recordlayer.NewGovernor(acct, recordlayer.GovernorOptions{
			TotalConcurrent: cfg.Victims + 1,
		})
	}
	opts.Governor = gov
	runner := recordlayer.NewRunner(c.db, opts)

	tenants := make([]string, 0, cfg.Victims+1)
	for i := 0; i < cfg.Victims; i++ {
		tenants = append(tenants, fmt.Sprintf("victim-%d", i))
	}
	if spec.withAggressor {
		tenants = append(tenants, aggressorTenant)
	}
	if spec.bgIndex {
		tenants = append(tenants, bulkTenant)
	}
	if err := precreate(ctx, c, runner, tenants); err != nil {
		return NoisyPhase{}, err
	}

	// The background-index phase walks a pre-populated bulk store.
	var indexer *core.OnlineIndexer
	if spec.bgIndex {
		if err := populateBulk(ctx, c, runner, cfg); err != nil {
			return NoisyPhase{}, err
		}
		v2, err := noisySchemaV2(c.note)
		if err != nil {
			return NoisyPhase{}, err
		}
		space, err := c.ks.MustPath("app").MustAdd("tenant", bulkTenant).ToSubspaceStatic()
		if err != nil {
			return NoisyPhase{}, err
		}
		indexer = &core.OnlineIndexer{
			DB:        c.db,
			MetaData:  v2,
			Space:     space,
			IndexName: "by_body",
			BatchSize: 32,
			Config:    core.Config{InlineBuildLimit: 8}, // force the online path
			Pace:      recordlayer.PaceFromGovernor(gov, bulkTenant),
		}
	}

	var workers []*worker
	var wg sync.WaitGroup
	ioBase := c.db.Metrics().Snapshot()
	start := cfg.Clock()
	deadline := start.Add(cfg.Phase)
	spawn := func(tenant string, workerIdx, recsPerTxn, recSize int, record bool) {
		w := &worker{tenant: tenant, runner: runner, clock: cfg.Clock, sleep: cfg.Sleep}
		workers = append(workers, w)
		wg.Add(1)
		go w.run(ctx, c, deadline, cfg.Seed+int64(workerIdx)*7919, recsPerTxn, recSize, record, &wg)
	}
	idx := 0
	for i := 0; i < cfg.Victims; i++ {
		// Victims: one worker each, small steady writes (3 × ~200 B).
		spawn(fmt.Sprintf("victim-%d", i), idx, victimRecsPerTxn, victimRecSize, true)
		idx++
	}
	if spec.withAggressor {
		for i := 0; i < cfg.AggressorWorkers; i++ {
			// Aggressor: many workers, heavy writes (12 × ~4 kB).
			spawn(aggressorTenant, idx, aggressorRecsPerTxn, aggressorRecSize, false)
			idx++
		}
	}

	indexed := 0
	var buildErr error
	indexDone := make(chan struct{})
	if indexer != nil {
		bctx, cancel := context.WithDeadline(ctx, deadline)
		defer cancel()
		go func() {
			defer close(indexDone)
			n, err := indexer.Build(bctx)
			indexed = n
			// Deadline expiry is the expected way a phase-bounded build
			// stops; progress is durable either way.
			if err != nil && !errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
				buildErr = err
			}
		}()
	} else {
		close(indexDone)
	}
	wg.Wait()
	<-indexDone
	elapsed := cfg.Clock().Sub(start)
	if buildErr != nil {
		return NoisyPhase{}, fmt.Errorf("workload: background index build: %w", buildErr)
	}

	phase, err := mergePhase(spec.name, cfg, workers, elapsed, acct)
	phase.Indexed = indexed
	phase.IO = c.db.Metrics().Snapshot().Delta(ioBase)
	return phase, err
}

// populateBulk seeds the bulk tenant's store the background build will walk.
func populateBulk(ctx context.Context, c *noisyCluster, runner *recordlayer.Runner, cfg NoisyConfig) error {
	rng := rand.New(rand.NewSource(cfg.Seed + 17))
	tctx := recordlayer.WithTenant(ctx, bulkTenant)
	const perTxn = 100
	for base := 0; base < cfg.IndexRecords; base += perTxn {
		n := perTxn
		if base+n > cfg.IndexRecords {
			n = cfg.IndexRecords - base
		}
		recs := make([]*message.Message, n)
		for j := range recs {
			recs[j] = message.New(c.note).
				MustSet("id", int64(base+j)).
				MustSet("body", NoteBody(rng, 120))
		}
		if _, err := runner.Run(tctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			store, err := c.provider.Open(ctx, tr, bulkTenant)
			if err != nil {
				return nil, err
			}
			for _, rec := range recs {
				if _, err := store.SaveRecord(rec); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}); err != nil {
			return fmt.Errorf("workload: populate bulk store: %w", err)
		}
	}
	return nil
}

// runPersistedPhase is the stateless-server flow: the aggressor's quota is
// written once to a LimitsStore, and two independent Governors — two
// simulated servers splitting the workload — load it with no in-process
// SetLimits call. It reports whether both governors saw identical limits.
func runPersistedPhase(ctx context.Context, cfg NoisyConfig) (NoisyPhase, bool, error) {
	c, err := newNoisyCluster()
	if err != nil {
		return NoisyPhase{}, false, err
	}
	limits := recordlayer.NewLimitsStore(c.db)
	want := recordlayer.TenantLimits{
		TxnPerSecond:  cfg.AggressorRate / 2, // split across 2 servers: same total cap
		Burst:         (cfg.AggressorBurst + 1) / 2,
		MaxConcurrent: 1,
	}
	if err := limits.Set(ctx, aggressorTenant, want); err != nil {
		return NoisyPhase{}, false, err
	}

	acctA, acctB := recordlayer.NewAccountant(), recordlayer.NewAccountant()
	govA := recordlayer.NewGovernor(acctA, recordlayer.GovernorOptions{})
	govB := recordlayer.NewGovernor(acctB, recordlayer.GovernorOptions{})
	if _, err := govA.LoadLimits(ctx, limits); err != nil {
		return NoisyPhase{}, false, err
	}
	if _, err := govB.LoadLimits(ctx, limits); err != nil {
		return NoisyPhase{}, false, err
	}
	consistent := govA.LimitsFor(aggressorTenant) == govB.LimitsFor(aggressorTenant) &&
		govA.LimitsFor(aggressorTenant) == want

	runnerA := recordlayer.NewRunner(c.db, recordlayer.RunnerOptions{Accountant: acctA, Governor: govA})
	runnerB := recordlayer.NewRunner(c.db, recordlayer.RunnerOptions{Accountant: acctB, Governor: govB})

	tenants := make([]string, 0, cfg.Victims+1)
	for i := 0; i < cfg.Victims; i++ {
		tenants = append(tenants, fmt.Sprintf("victim-%d", i))
	}
	tenants = append(tenants, aggressorTenant)
	if err := precreate(ctx, c, runnerA, tenants); err != nil {
		return NoisyPhase{}, false, err
	}

	var workers []*worker
	var wg sync.WaitGroup
	ioBase := c.db.Metrics().Snapshot()
	start := cfg.Clock()
	deadline := start.Add(cfg.Phase)
	spawn := func(tenant string, runner *recordlayer.Runner, workerIdx, recsPerTxn, recSize int, record bool) {
		w := &worker{tenant: tenant, runner: runner, clock: cfg.Clock, sleep: cfg.Sleep}
		workers = append(workers, w)
		wg.Add(1)
		go w.run(ctx, c, deadline, cfg.Seed+int64(workerIdx)*7919, recsPerTxn, recSize, record, &wg)
	}
	idx := 0
	for i := 0; i < cfg.Victims; i++ {
		spawn(fmt.Sprintf("victim-%d", i), runnerA, idx, victimRecsPerTxn, victimRecSize, true)
		idx++
	}
	for i := 0; i < cfg.AggressorWorkers; i++ {
		r := runnerA
		if i%2 == 1 {
			r = runnerB // the aggressor hits both "servers"
		}
		spawn(aggressorTenant, r, idx, aggressorRecsPerTxn, aggressorRecSize, false)
		idx++
	}
	wg.Wait()
	elapsed := cfg.Clock().Sub(start)

	phase, err := mergePhase("persisted", cfg, workers, elapsed, acctA, acctB)
	phase.IO = c.db.Metrics().Snapshot().Delta(ioBase)
	return phase, consistent, err
}

// distOutcome carries the distributed phase's invariant observations.
type distOutcome struct {
	sliceSumOK       bool
	exportConsistent bool
}

// runDistributedPhase is the cluster-wide governance flow: the aggressor's
// *global* quota (txn rate and byte rate) is written once to the LimitsStore,
// and three independent governors — three "stateless servers" the aggressor
// spreads across — each run a QuotaLeaseManager that claims a demand-sized,
// time-bounded slice of that budget from /__system__/limits/leases. Without
// leases each server would grant the full budget (the persisted phase's
// halved-rate workaround does not scale past a static fleet); with them the
// slices never sum past the global limit, so the aggressor's combined
// throughput stays at ~1x its quota no matter how many servers it hits.
// Every server also exports its Accountant's windows to the shared metering
// subspace; the phase ends by checking the aggregated report against the
// live accountants.
func runDistributedPhase(ctx context.Context, cfg NoisyConfig) (NoisyPhase, distOutcome, error) {
	out := distOutcome{}
	c, err := newNoisyCluster()
	if err != nil {
		return NoisyPhase{}, out, err
	}
	limits := recordlayer.NewLimitsStore(c.db)
	global := recordlayer.TenantLimits{
		TxnPerSecond:   cfg.AggressorRate, // the FULL budget: leases do the splitting
		Burst:          cfg.AggressorBurst,
		BytesPerSecond: cfg.AggressorByteRate,
		ByteBurst:      cfg.AggressorByteBurst,
		MaxConcurrent:  byteQuotaConcurrency,
	}
	if err := limits.Set(ctx, aggressorTenant, global); err != nil {
		return NoisyPhase{}, out, err
	}

	leaseStore := recordlayer.NewQuotaLeaseStore(c.db)
	metering := recordlayer.NewMeteringStore(c.db)
	accts := make([]*recordlayer.Accountant, distServers)
	runners := make([]*recordlayer.Runner, distServers)
	mgrs := make([]*recordlayer.QuotaLeaseManager, distServers)
	exps := make([]*recordlayer.UsageExporter, distServers)
	for i := 0; i < distServers; i++ {
		server := fmt.Sprintf("server-%d", i)
		accts[i] = recordlayer.NewAccountant()
		gov := recordlayer.NewGovernor(accts[i], recordlayer.GovernorOptions{})
		runners[i] = recordlayer.NewRunner(c.db, recordlayer.RunnerOptions{Accountant: accts[i], Governor: gov})
		mgrs[i] = recordlayer.NewQuotaLeaseManager(gov, c.db, recordlayer.QuotaLeaseOptions{
			Server: server,
			TTL:    cfg.Phase / 2,
		})
		exps[i] = recordlayer.NewUsageExporter(accts[i], c.db, server)
	}

	tenants := make([]string, 0, cfg.Victims+1)
	for i := 0; i < cfg.Victims; i++ {
		tenants = append(tenants, fmt.Sprintf("victim-%d", i))
	}
	tenants = append(tenants, aggressorTenant)
	// Pre-create before any limits load: the governors are still unlimited,
	// so store creation is not charged against the lease slices.
	if err := precreate(ctx, c, runners[0], tenants); err != nil {
		return NoisyPhase{}, out, err
	}
	// Two synchronous refresh rounds converge the cold-start claims to an
	// equal split (round 1 claims in arrival order against shrinking
	// headroom; round 2 re-sizes every claim against all three live rows).
	for round := 0; round < 2; round++ {
		for _, m := range mgrs {
			if _, err := m.Refresh(ctx); err != nil {
				return NoisyPhase{}, out, err
			}
		}
	}

	// Heartbeat + invariant sampler: renew/rebalance every ~Phase/10 and
	// after each round assert the lease table's slice sums never exceed the
	// global limit. sliceOK is written only here and read after the join.
	sliceOK := true
	hbCtx, hbCancel := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		interval := cfg.Phase / 10
		if interval < 5*time.Millisecond {
			interval = 5 * time.Millisecond
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				for _, m := range mgrs {
					_, _ = m.Refresh(ctx) // transient claim conflicts retry next beat
				}
				rows, err := leaseStore.Live(ctx, aggressorTenant, cfg.Clock())
				if err != nil {
					continue
				}
				var sumTxn, sumBytes float64
				for _, r := range rows {
					sumTxn += r.Slice.Txn
					sumBytes += r.Slice.Bytes
				}
				if sumTxn > global.TxnPerSecond*1.0001 || sumBytes > global.BytesPerSecond*1.0001 {
					sliceOK = false
				}
			}
		}
	}()

	var workers []*worker
	var wg sync.WaitGroup
	ioBase := c.db.Metrics().Snapshot()
	start := cfg.Clock()
	deadline := start.Add(cfg.Phase)
	spawn := func(tenant string, runner *recordlayer.Runner, workerIdx, recsPerTxn, recSize int, record bool) {
		w := &worker{tenant: tenant, runner: runner, maxBackoff: distMaxBackoff, clock: cfg.Clock, sleep: cfg.Sleep}
		workers = append(workers, w)
		wg.Add(1)
		go w.run(ctx, c, deadline, cfg.Seed+int64(workerIdx)*7919, recsPerTxn, recSize, record, &wg)
	}
	idx := 0
	for i := 0; i < cfg.Victims; i++ {
		spawn(fmt.Sprintf("victim-%d", i), runners[0], idx, victimRecsPerTxn, victimRecSize, true)
		idx++
	}
	for i := 0; i < cfg.AggressorWorkers; i++ {
		// The aggressor hits all three "servers".
		spawn(aggressorTenant, runners[i%distServers], idx, aggressorRecsPerTxn, aggressorRecSize, false)
		idx++
	}
	wg.Wait()
	elapsed := cfg.Clock().Sub(start)
	hbCancel()
	<-hbDone
	out.sliceSumOK = sliceOK

	// Export every server's final window and check the aggregated report
	// against the live accountants: the billing pipeline must account every
	// transaction and byte the phase ran, exactly once.
	for _, e := range exps {
		if _, err := e.Export(ctx); err != nil {
			return NoisyPhase{}, out, err
		}
	}
	_, total, err := metering.Report(ctx)
	if err != nil {
		return NoisyPhase{}, out, err
	}
	var live recordlayer.TenantUsage
	for _, acct := range accts {
		for _, u := range acct.Snapshot() {
			live = live.Accumulate(u)
		}
	}
	out.exportConsistent = total == live

	phase, err := mergePhase("distributed", cfg, workers, elapsed, accts...)
	phase.IO = c.db.Metrics().Snapshot().Delta(ioBase)
	return phase, out, err
}

// percentiles returns the p50 and p95 of a latency sample (0,0 when empty).
func percentiles(ds []time.Duration) (p50, p95 time.Duration) {
	if len(ds) == 0 {
		return 0, 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	return at(0.50), at(0.95)
}

// MeasureGovernanceOverhead times the same single-tenant write loop with and
// without governance (generous limits, so admission always succeeds on the
// fast path) — the per-transaction cost of metering plus admission. Each
// variant is measured three times after a warmup and the minimum is
// reported, squeezing out GC and scheduler noise.
func MeasureGovernanceOverhead(ctx context.Context, txns int) (ungoverned, governed time.Duration, err error) {
	if txns <= 0 {
		txns = 2000
	}
	run := func(governed bool) (time.Duration, error) {
		note, md, err := noisySchema()
		if err != nil {
			return 0, err
		}
		ks, err := keyspace.New(nil,
			keyspace.NewConstant("app", "overhead").Add(
				keyspace.NewDirectory("tenant", keyspace.TypeString)))
		if err != nil {
			return 0, err
		}
		provider, err := recordlayer.NewStoreProvider(md, ks, []string{"app", "tenant"},
			recordlayer.ProviderOptions{})
		if err != nil {
			return 0, err
		}
		db := fdb.Open(nil)
		opts := recordlayer.RunnerOptions{}
		runCtx := ctx
		if governed {
			gov := recordlayer.NewGovernor(nil, recordlayer.GovernorOptions{})
			gov.SetLimits("t", recordlayer.TenantLimits{TxnPerSecond: 1e9, MaxConcurrent: 64})
			opts.Governor = gov
			runCtx = recordlayer.WithTenant(ctx, "t")
		}
		runner := recordlayer.NewRunner(db, opts)
		rng := rand.New(rand.NewSource(1))
		body := NoteBody(rng, 200)
		save := func(i int) error {
			rec := message.New(note).MustSet("id", int64(i)).MustSet("body", body)
			_, err := runner.Run(runCtx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
				store, err := provider.Open(ctx, tr, "t")
				if err != nil {
					return nil, err
				}
				_, err = store.SaveRecord(rec)
				return nil, err
			})
			return err
		}
		id := 0
		for i := 0; i < txns/4; i++ { // warmup
			if err := save(id); err != nil {
				return 0, err
			}
			id++
		}
		best := time.Duration(0)
		for rep := 0; rep < 3; rep++ {
			start := time.Now() //lint:allow clockinject measures real wall-clock overhead of governance, not simulated time
			for i := 0; i < txns; i++ {
				if err := save(id); err != nil {
					return 0, err
				}
				id++
			}
			if d := time.Since(start) / time.Duration(txns); best == 0 || d < best { //lint:allow clockinject measures real wall-clock overhead of governance, not simulated time
				best = d
			}
		}
		return best, nil
	}
	if ungoverned, err = run(false); err != nil {
		return
	}
	governed, err = run(true)
	return
}
