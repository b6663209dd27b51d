package recordlayer

import (
	"context"
	"fmt"
	"testing"
	"time"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/keyspace"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/plan"
	"recordlayer/internal/query"
	"recordlayer/internal/tuple"
)

// billingSchema carries one index of every type: VALUE, unique VALUE,
// VERSION, each atomic aggregate, RANK and TEXT.
func billingSchema() (*message.Descriptor, *metadata.MetaData) {
	player := message.MustDescriptor("Player",
		message.Field("id", 1, message.TypeInt64),
		message.Field("team", 2, message.TypeString),
		message.Field("email", 3, message.TypeString),
		message.Field("score", 4, message.TypeInt64),
		message.Field("bio", 5, message.TypeString),
	)
	score := keyexpr.Field("score")
	team := keyexpr.Field("team")
	md := metadata.NewBuilder(1).
		AddRecordType(player, keyexpr.Field("id")).
		AddIndex(&metadata.Index{Name: "by_team", Type: metadata.IndexValue, Expression: team}, "Player").
		AddIndex(&metadata.Index{Name: "by_email", Type: metadata.IndexValue, Unique: true,
			Expression: keyexpr.Field("email")}, "Player").
		AddIndex(&metadata.Index{Name: "by_version", Type: metadata.IndexVersion, Expression: keyexpr.Version()}, "Player").
		AddIndex(&metadata.Index{Name: "team_count", Type: metadata.IndexCount,
			Expression: keyexpr.GroupBy(keyexpr.Empty(), team)}, "Player").
		AddIndex(&metadata.Index{Name: "team_saves", Type: metadata.IndexCountUpdates,
			Expression: keyexpr.GroupBy(keyexpr.Empty(), team)}, "Player").
		AddIndex(&metadata.Index{Name: "score_count", Type: metadata.IndexCountNonNull,
			Expression: keyexpr.Ungrouped(score)}, "Player").
		AddIndex(&metadata.Index{Name: "score_sum", Type: metadata.IndexSum, Expression: keyexpr.Ungrouped(score)}, "Player").
		AddIndex(&metadata.Index{Name: "score_max", Type: metadata.IndexMaxEver, Expression: keyexpr.Ungrouped(score)}, "Player").
		AddIndex(&metadata.Index{Name: "score_min", Type: metadata.IndexMinEver, Expression: keyexpr.Ungrouped(score)}, "Player").
		AddIndex(&metadata.Index{Name: "score_rank", Type: metadata.IndexRank, Expression: score}, "Player").
		AddIndex(&metadata.Index{Name: "bio_text", Type: metadata.IndexText, Expression: keyexpr.Field("bio")}, "Player").
		MustBuild()
	return player, md
}

func player(d *message.Descriptor, id int64, team string, score int64, bio string) *message.Message {
	return message.New(d).MustSet("id", id).MustSet("team", team).
		MustSet("email", fmt.Sprintf("p%d@example.com", id)).
		MustSet("score", score).MustSet("bio", bio)
}

// billingPath is one way a tenant's meter gets bound to a transaction.
type billingPath struct {
	name  string
	r     *Runner
	p     *StoreProvider
	ctx   context.Context
	usage func() TenantUsage
}

// billingPaths gives each path its own database opened with opts.
func billingPaths(t *testing.T, opts *fdb.Options) []billingPath {
	t.Helper()
	_, md := billingSchema()
	newProvider := func(acct *Accountant) *StoreProvider {
		ks, err := keyspace.New(nil,
			keyspace.NewConstant("app", "billing").Add(keyspace.NewDirectory("user", keyspace.TypeInt64)))
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewStoreProvider(md, ks, []string{"app", "user"}, ProviderOptions{
			Accountant: acct,
			Planner:    plan.Config{PreferIndexIntersection: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	runnerAcct, providerAcct := NewAccountant(), NewAccountant()
	return []billingPath{{
		name:  "runner",
		r:     NewRunner(fdb.Open(opts), RunnerOptions{Accountant: runnerAcct}),
		p:     newProvider(nil),
		ctx:   WithTenant(context.Background(), "acme"),
		usage: func() TenantUsage { return runnerAcct.Tenant("acme").Snapshot() },
	}, {
		// No tenant on the context and no Runner accountant: Open binds the
		// provider's meter for the tenant named by the path values.
		name:  "provider",
		r:     NewRunner(fdb.Open(opts), RunnerOptions{}),
		p:     newProvider(providerAcct),
		ctx:   context.Background(),
		usage: func() TenantUsage { return providerAcct.Tenant("7").Snapshot() },
	}}
}

// runBilled runs fn against tenant 7's store as one Runner transaction and
// reports any difference between the tenant's Usage delta and the
// transaction's TxnStats.
func runBilled(bp billingPath, fn func(s *Store, tr *fdb.Transaction) error) error {
	before := bp.usage()
	var st fdb.TxnStats
	attempts := 0
	_, err := bp.r.Run(bp.ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		attempts++
		s, err := bp.p.Open(ctx, tr, int64(7))
		if err != nil {
			return nil, err
		}
		err = fn(s, tr)
		st = tr.Stats()
		return nil, err
	})
	if err != nil {
		return err
	}
	if attempts != 1 {
		return fmt.Errorf("%d attempts: the comparison needs exactly one", attempts)
	}
	after := bp.usage()
	billed := [4]int64{after.ReadRecords - before.ReadRecords, after.ReadBytes - before.ReadBytes,
		after.WriteRecords - before.WriteRecords, after.WriteBytes - before.WriteBytes}
	counted := [4]int64{int64(st.KeysRead), int64(st.BytesRead), int64(st.Mutations), int64(st.Size)}
	if billed != counted {
		return fmt.Errorf("billed reads %d rows/%d bytes, writes %d rows/%d bytes; transaction counted %d/%d, %d/%d",
			billed[0], billed[1], billed[2], billed[3], counted[0], counted[1], counted[2], counted[3])
	}
	return nil
}

func drain[T any](c cursor.Cursor[T], err error) error {
	if err != nil {
		return err
	}
	_, _, _, err = cursor.Collect(c)
	return err
}

func runQuery(s *Store, q Query, props ExecuteProperties) error {
	cur, err := s.ExecuteQuery(context.Background(), q, props)
	if err != nil {
		return err
	}
	_, err = cur.ToList()
	return err
}

// TestTenantBilledExactlyWhatTheTransactionDid: for a transaction that
// touches one tenant, the tenant's Usage delta equals the transaction's
// TxnStats — ReadRecords == KeysRead, ReadBytes == BytesRead, WriteRecords ==
// Mutations, WriteBytes == Size — across saves, updates, deletes, scans,
// aggregate reads, rank lookups, text searches and union/intersection
// queries over every index type, with the meter bound by the Runner or by
// the provider fallback, at zero latency and under a virtual latency model
// (batched saves, pipelined fetches, read-ahead).
func TestTenantBilledExactlyWhatTheTransactionDid(t *testing.T) {
	doc, _ := billingSchema()
	ops := []struct {
		name string
		fn   func(s *Store, tr *fdb.Transaction) error
	}{
		{"save", func(s *Store, tr *fdb.Transaction) error {
			for i := int64(1); i <= 12; i++ {
				team := []string{"red", "blue", "green"}[i%3]
				bio := fmt.Sprintf("player %d plays %s ball with words", i, team)
				if _, err := s.SaveRecord(player(doc, i, team, i*10, bio)); err != nil {
					return err
				}
			}
			return nil
		}},
		{"batch update", func(s *Store, tr *fdb.Transaction) error {
			var msgs []*message.Message
			for i := int64(2); i <= 6; i++ {
				msgs = append(msgs, player(doc, i, "blue", 100-i, "moved teams and words changed"))
			}
			_, err := s.SaveRecords(msgs)
			return err
		}},
		{"insert", func(s *Store, tr *fdb.Transaction) error {
			_, err := s.InsertRecord(player(doc, 40, "red", 55, "a new player"))
			return err
		}},
		{"delete", func(s *Store, tr *fdb.Transaction) error {
			if _, err := s.DeleteRecord(tuple.Tuple{int64(3)}); err != nil {
				return err
			}
			_, err := s.DeleteRecord(tuple.Tuple{int64(999)}) // absent
			return err
		}},
		{"load", func(s *Store, tr *fdb.Transaction) error {
			for _, id := range []int64{1, 3, 999} {
				if _, err := s.LoadRecordByKey(tuple.Tuple{id}); err != nil {
					return err
				}
			}
			return nil
		}},
		{"record scan", func(s *Store, tr *fdb.Transaction) error {
			return runQuery(s, Query{RecordTypes: []string{"Player"}}, ExecuteProperties{})
		}},
		{"record scan row limit", func(s *Store, tr *fdb.Transaction) error {
			return runQuery(s, Query{RecordTypes: []string{"Player"}}, ExecuteProperties{RowLimit: 2})
		}},
		{"index query", func(s *Store, tr *fdb.Transaction) error {
			return runQuery(s, Query{RecordTypes: []string{"Player"},
				Filter: query.Field("team").Equals("blue")}, ExecuteProperties{Snapshot: true})
		}},
		{"version scan", func(s *Store, tr *fdb.Transaction) error {
			return drain(s.ScanIndex("by_version", index.TupleRange{}, index.ScanOptions{}))
		}},
		{"aggregates", func(s *Store, tr *fdb.Transaction) error {
			for _, name := range []string{"score_count", "score_sum"} {
				if _, err := s.AggregateInt64(name, nil); err != nil {
					return err
				}
			}
			for _, team := range []string{"red", "blue", "purple"} {
				for _, name := range []string{"team_count", "team_saves"} {
					if _, err := s.AggregateInt64(name, tuple.Tuple{team}); err != nil {
						return err
					}
				}
			}
			for _, name := range []string{"score_max", "score_min"} {
				if _, _, err := s.AggregateTuple(name, nil); err != nil {
					return err
				}
			}
			return nil
		}},
		{"rank lookup", func(s *Store, tr *fdb.Transaction) error {
			if _, _, err := s.Rank("score_rank", tuple.Tuple{int64(10)}, tuple.Tuple{int64(1)}); err != nil {
				return err
			}
			if _, err := s.RankOfValue("score_rank", tuple.Tuple{int64(70)}); err != nil {
				return err
			}
			if _, _, err := s.ByRank("score_rank", 3); err != nil {
				return err
			}
			return drain(s.ScanByRank("score_rank", 2, index.ScanOptions{}))
		}},
		{"text search", func(s *Store, tr *fdb.Transaction) error {
			if _, err := s.TextSearchToken("bio_text", "words"); err != nil {
				return err
			}
			if _, err := s.TextSearchPrefix("bio_text", "pl"); err != nil {
				return err
			}
			_, err := s.TextSearchPhrase("bio_text", "ball with words")
			return err
		}},
		{"union query", func(s *Store, tr *fdb.Transaction) error {
			return runQuery(s, Query{RecordTypes: []string{"Player"}, Filter: query.Or(
				query.Field("team").Equals("green"),
				query.Field("email").Equals("p1@example.com"),
			)}, ExecuteProperties{})
		}},
		{"intersection query", func(s *Store, tr *fdb.Transaction) error {
			return runQuery(s, Query{RecordTypes: []string{"Player"}, Filter: query.And(
				query.Field("team").Equals("blue"),
				query.Field("email").Equals("p4@example.com"),
			)}, ExecuteProperties{})
		}},
		{"save and read back", func(s *Store, tr *fdb.Transaction) error {
			if _, err := s.SaveRecord(player(doc, 41, "green", 5, "fresh words")); err != nil {
				return err
			}
			// Served from the write buffer: charged nothing.
			if _, err := s.LoadRecordByKey(tuple.Tuple{int64(41)}); err != nil {
				return err
			}
			_, err := s.TextSearchToken("bio_text", "fresh")
			return err
		}},
	}
	dbs := map[string]*fdb.Options{
		"instant": nil,
		"latency": {Latency: fdb.LatencyModel{PerRead: 100 * time.Microsecond, Virtual: true}},
	}
	for dbName, opts := range dbs {
		for _, bp := range billingPaths(t, opts) {
			for _, op := range ops {
				if err := runBilled(bp, op.fn); err != nil {
					t.Errorf("%s/%s/%s: %v", dbName, bp.name, op.name, err)
				}
			}
		}
	}
}

// TestBillingCheckCatchesUnmeteredRead is the negative control for the
// test above: a read issued while the transaction's meter is unbound is
// counted by TxnStats but billed to no one, and runBilled must say so.
func TestBillingCheckCatchesUnmeteredRead(t *testing.T) {
	doc, _ := billingSchema()
	for _, bp := range billingPaths(t, nil) {
		if err := runBilled(bp, func(s *Store, tr *fdb.Transaction) error {
			_, err := s.SaveRecord(player(doc, 1, "red", 10, "words"))
			return err
		}); err != nil {
			t.Fatalf("%s: %v", bp.name, err)
		}
		err := runBilled(bp, func(s *Store, tr *fdb.Transaction) error {
			m := tr.Meter()
			tr.SetMeter(nil)
			defer tr.SetMeter(m)
			_, err := s.LoadRecordByKey(tuple.Tuple{int64(1)})
			return err
		})
		if err == nil {
			t.Errorf("%s: a read that skipped the meter passed the billing check", bp.name)
		}
	}
}
