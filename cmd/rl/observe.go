package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"recordlayer"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/keyspace"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/query"
)

// obsStack is the seeded demo stack the metrics and plans subcommands share:
// a governed multi-tenant provider over the in-memory simulator, with a
// slow-query log installed.
type obsStack struct {
	db       *fdb.Database
	acct     *recordlayer.Accountant
	gov      *recordlayer.Governor
	runner   *recordlayer.Runner
	provider *recordlayer.StoreProvider
	slow     *recordlayer.SlowQueryLog
	note     *message.Descriptor
}

func newObsStack() *obsStack {
	// A light seeded conflict rate gives the retry families
	// (fdb_retries_total, runner_retries_by_cause_total) something to export.
	db := fdb.Open(&fdb.Options{Faults: fdb.NewFaultInjector(fdb.FaultConfig{Seed: 1, PCommitNotCommitted: 0.1})})
	acct := recordlayer.NewAccountant()
	gov := recordlayer.NewGovernor(acct, recordlayer.GovernorOptions{})
	gov.SetLimits("freeloader", recordlayer.TenantLimits{TxnPerSecond: 25, Burst: 5})
	// A lease-derived overlay, as a lease.Manager would install it, so the
	// lease gauges have something to export.
	gov.SetLease("acme", recordlayer.TenantLimits{TxnPerSecond: 50, BytesPerSecond: 1 << 20})
	runner := recordlayer.NewRunner(db, recordlayer.RunnerOptions{Governor: gov})

	note := message.MustDescriptor("Note",
		message.Field("id", 1, message.TypeInt64),
		message.Field("zone", 2, message.TypeString),
	)
	md := metadata.NewBuilder(1).
		AddRecordType(note, keyexpr.Field("id")).
		AddIndex(&metadata.Index{Name: "by_zone", Type: metadata.IndexValue,
			Expression: keyexpr.Then(keyexpr.Field("zone"), keyexpr.Field("id"))}, "Note").
		MustBuild()
	ks, err := keyspace.New(nil,
		keyspace.NewConstant("app", "observe-demo").Add(
			keyspace.NewDirectory("tenant", keyspace.TypeString)))
	must(err)
	slow := recordlayer.NewSlowQueryLog(0)
	provider, err := recordlayer.NewStoreProvider(md, ks, []string{"app", "tenant"},
		recordlayer.ProviderOptions{Accountant: acct, SlowQueries: slow})
	must(err)
	return &obsStack{db: db, acct: acct, gov: gov, runner: runner, provider: provider, slow: slow, note: note}
}

// run drives a short governed traffic mix: writes and queries across three
// tenants, including quota rejections for the rate-limited one.
func (st *obsStack) run() {
	ctx := context.Background()
	id := int64(0)
	for _, load := range []struct {
		tenant string
		txns   int
		reads  int
	}{
		{"acme", 8, 3},
		{"initech", 3, 2},
		{"freeloader", 40, 1},
	} {
		tctx := recordlayer.WithTenant(ctx, load.tenant)
		for t := 0; t < load.txns; t++ {
			recs := make([]*message.Message, 4)
			for j := range recs {
				recs[j] = message.New(st.note).MustSet("id", id).MustSet("zone", "z")
				id++
			}
			_, err := st.runner.Run(tctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
				s, err := st.provider.Open(ctx, tr, load.tenant)
				if err != nil {
					return nil, err
				}
				for _, rec := range recs {
					if _, err := s.SaveRecord(rec); err != nil {
						return nil, err
					}
				}
				return nil, nil
			})
			if recordlayer.IsQuotaExceeded(err) {
				continue
			}
			must(err)
		}
		for t := 0; t < load.reads; t++ {
			_, err := st.runner.ReadRun(tctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
				s, err := st.provider.Open(ctx, tr, load.tenant)
				if err != nil {
					return nil, err
				}
				cur, err := s.ExecuteQuery(ctx, recordlayer.Query{
					RecordTypes: []string{"Note"},
					Filter:      query.Field("zone").Equals("z"),
				}, recordlayer.ExecuteProperties{
					RowLimit: 50, Snapshot: true,
					// A deliberately absurd threshold so the slow-query path
					// demonstrably fires in the demo.
					SlowQueryThreshold: time.Nanosecond,
				})
				if err != nil {
					return nil, err
				}
				return nil, cur.ForEach(func(*recordlayer.Record) error { return nil })
			})
			if recordlayer.IsQuotaExceeded(err) {
				continue
			}
			must(err)
		}
	}
}

// metricsCmd seeds the stack, runs traffic, and dumps every registered
// metric family in Prometheus text format — databases, runner, governor,
// per-tenant accounting, plan cache, and query latency.
func metricsCmd() {
	st := newObsStack()
	st.run()
	reg := recordlayer.NewMetricsRegistry()
	recordlayer.RegisterDatabaseMetrics(reg, st.db)
	recordlayer.RegisterRunnerMetrics(reg, st.runner)
	recordlayer.RegisterGovernorMetrics(reg, st.gov)
	recordlayer.RegisterAccountantMetrics(reg, st.acct)
	st.provider.RegisterMetrics(reg)
	must(reg.WriteProm(os.Stdout))
}

// plansCmd seeds the stack, executes a mix of repeated and distinct queries,
// and prints the plan cache: every cached fingerprint with its plan and hit
// count, plus the cache-wide counters.
func plansCmd() {
	st := newObsStack()
	st.run()
	ctx := recordlayer.WithTenant(context.Background(), "acme")
	queries := []recordlayer.Query{
		{RecordTypes: []string{"Note"}, Filter: query.Field("zone").Equals("z")},
		{RecordTypes: []string{"Note"}, Filter: query.Field("zone").Equals("z")}, // repeat: cache hit
		{RecordTypes: []string{"Note"}, Filter: query.Field("id").LessThan(int64(10))},
		{RecordTypes: []string{"Note"}},
	}
	for _, q := range queries {
		_, err := st.runner.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := st.provider.Open(ctx, tr, "acme")
			if err != nil {
				return nil, err
			}
			cur, err := s.ExecuteQuery(ctx, q, recordlayer.ExecuteProperties{Snapshot: true})
			if err != nil {
				return nil, err
			}
			return nil, cur.ForEach(func(*recordlayer.Record) error { return nil })
		})
		must(err)
	}

	fmt.Println("Plan cache (most recently used first):")
	fmt.Printf("  %5s  %-45s %s\n", "HITS", "FINGERPRINT", "PLAN")
	for _, e := range st.provider.PlanCacheEntries() {
		fmt.Printf("  %5d  %-45s %s\n", e.Hits, e.Fingerprint, e.Plan)
	}
	s := st.provider.PlanCacheStats()
	fmt.Printf("\n  totals: hits=%d misses=%d evictions=%d size=%d\n",
		s.Hits, s.Misses, s.Evictions, s.Size)
}
