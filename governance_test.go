package recordlayer

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/tuple"
)

// TestTenantMeteringEndToEnd drives writes and a query through the full
// façade under a tenant-bound context and checks that the Accountant saw the
// traffic at every layer: record writes and index maintenance on the save
// path, kv scans and record fetches on the read path, plus transaction
// latency.
func TestTenantMeteringEndToEnd(t *testing.T) {
	_, md := testSchema(t)
	db := fdb.Open(nil)
	acct := NewAccountant()
	r := NewRunner(db, RunnerOptions{Accountant: acct})
	p := testProvider(t, md)
	ctx := WithTenant(context.Background(), "acme")

	doc, _ := testSchema(t)
	_, err := r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := p.Open(ctx, tr, int64(1))
		if err != nil {
			return nil, err
		}
		for i := int64(0); i < 10; i++ {
			rec := message.New(doc).MustSet("id", i).MustSet("tag", "even")
			if _, err := store.SaveRecord(rec); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	afterWrite := acct.Tenant("acme").Snapshot()
	// 10 records + 10 by_tag index entries at minimum.
	if afterWrite.WriteRecords < 20 {
		t.Errorf("WriteRecords = %d, want >= 20 (records + index entries)", afterWrite.WriteRecords)
	}
	if afterWrite.WriteBytes <= 0 {
		t.Errorf("WriteBytes = %d, want > 0", afterWrite.WriteBytes)
	}
	if afterWrite.Transactions != 1 || afterWrite.TxnTime <= 0 {
		t.Errorf("Transactions/TxnTime = %d/%v, want 1/>0", afterWrite.Transactions, afterWrite.TxnTime)
	}

	_, err = r.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := p.Open(ctx, tr, int64(1))
		if err != nil {
			return nil, err
		}
		cur, err := store.ExecuteQuery(ctx, Query{RecordTypes: []string{"Doc"}}, ExecuteProperties{})
		if err != nil {
			return nil, err
		}
		recs, err := cur.ToList()
		if err != nil {
			return nil, err
		}
		if len(recs) != 10 {
			t.Errorf("query returned %d records, want 10", len(recs))
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	afterRead := acct.Tenant("acme").Snapshot()
	if afterRead.ReadRecords <= afterWrite.ReadRecords {
		t.Errorf("reads did not advance: %d -> %d", afterWrite.ReadRecords, afterRead.ReadRecords)
	}
	if afterRead.ReadBytes <= 0 {
		t.Errorf("ReadBytes = %d, want > 0", afterRead.ReadBytes)
	}
	if afterRead.Transactions != 2 {
		t.Errorf("Transactions = %d, want 2", afterRead.Transactions)
	}

	// An unbound context meters nothing new.
	before := acct.Tenant("acme").Snapshot()
	_, err = r.ReadRun(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := p.Open(ctx, tr, int64(1))
		if err != nil {
			return nil, err
		}
		_, err = store.LoadRecordByKey(tuple.Tuple{int64(0)})
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := acct.Tenant("acme").Snapshot(); got.ReadRecords != before.ReadRecords {
		t.Errorf("unbound context metered tenant reads: %d -> %d", before.ReadRecords, got.ReadRecords)
	}
}

// TestProviderAccountantBindsTenantFromPath checks the provider-level
// fallback: no runner accountant, but a ProviderOptions.Accountant meters
// under the tenant key derived from the keyspace path values.
func TestProviderAccountantBindsTenantFromPath(t *testing.T) {
	_, md := testSchema(t)
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{})
	acct := NewAccountant()
	p := testProvider(t, md)
	p.opts.Accountant = acct

	saveDocs(t, r, p, 42, 4)
	ids := acct.Tenants()
	if len(ids) != 1 || ids[0] != "42" {
		t.Fatalf("tenants = %v, want [42]", ids)
	}
	if u := acct.Tenant("42").Snapshot(); u.WriteRecords < 4 {
		t.Errorf("WriteRecords = %d, want >= 4", u.WriteRecords)
	}
}

// TestRunnerQuotaExceeded checks the typed rejection path: a tenant over its
// rate quota fails fast with *QuotaExceededError, other tenants proceed.
func TestRunnerQuotaExceeded(t *testing.T) {
	_, md := testSchema(t)
	db := fdb.Open(nil)
	gov := NewGovernor(nil, GovernorOptions{})
	gov.SetLimits("hog", TenantLimits{TxnPerSecond: 0.001, Burst: 1})
	r := NewRunner(db, RunnerOptions{Governor: gov})
	p := testProvider(t, md)

	ctx := WithTenant(context.Background(), "hog")
	saveDocs2 := func(ctx context.Context) error {
		_, err := r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			store, err := p.Open(ctx, tr, int64(9))
			if err != nil {
				return nil, err
			}
			doc, _ := testSchema(t)
			_, err = store.SaveRecord(message.New(doc).MustSet("id", int64(1)).MustSet("tag", "x"))
			return nil, err
		})
		return err
	}
	if err := saveDocs2(ctx); err != nil {
		t.Fatalf("burst admission failed: %v", err)
	}
	err := saveDocs2(ctx)
	var qe *QuotaExceededError
	if !errors.As(err, &qe) || !IsQuotaExceeded(err) {
		t.Fatalf("want QuotaExceededError, got %v", err)
	}
	if qe.Tenant != "hog" || qe.RetryAfter <= 0 {
		t.Errorf("quota error = %+v", qe)
	}
	// The runner counted the rejection as a failure, and the governor's
	// accountant recorded it.
	if m := r.Metrics(); m.Failures != 1 {
		t.Errorf("runner failures = %d, want 1", m.Failures)
	}
	if u := gov.Accountant().Tenant("hog").Snapshot(); u.Rejected != 1 || u.Admitted != 1 {
		t.Errorf("admitted/rejected = %d/%d, want 1/1", u.Admitted, u.Rejected)
	}
	// A different tenant is unaffected.
	if err := saveDocs2(WithTenant(context.Background(), "polite")); err != nil {
		t.Fatalf("unrelated tenant throttled: %v", err)
	}
	// An unbound context bypasses governance entirely.
	if err := saveDocs2(context.Background()); err != nil {
		t.Fatalf("unbound context governed: %v", err)
	}
}

// TestRunnerRecordsConflicts checks that conflicted attempts under a
// tenant-bound context land in the tenant's Conflicts counter.
func TestRunnerRecordsConflicts(t *testing.T) {
	db := fdb.Open(nil)
	acct := NewAccountant()
	r := NewRunner(db, RunnerOptions{
		Accountant: acct,
		Sleep:      func(context.Context, time.Duration) error { return nil },
	})
	ctx := WithTenant(context.Background(), "bumpy")
	attempts := 0
	_, err := r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		attempts++
		if attempts <= 2 {
			return nil, &fdb.Error{Code: fdb.CodeNotCommitted, Msg: "synthetic conflict"}
		}
		return nil, tr.Set([]byte("k"), []byte("v"))
	})
	if err != nil {
		t.Fatal(err)
	}
	u := acct.Tenant("bumpy").Snapshot()
	if u.Conflicts != 2 {
		t.Errorf("Conflicts = %d, want 2", u.Conflicts)
	}
	if u.Transactions != 1 {
		t.Errorf("Transactions = %d, want 1", u.Transactions)
	}
}

// TestRankTextIndexWritesMetered: rank skip-list and text bunched-map
// maintenance debit the tenant's accounting like value/atomic/version
// indexes do — exactly what the transactions counted — and, through the
// accounting, the governor's byte bucket.
func TestRankTextIndexWritesMetered(t *testing.T) {
	mkMD := func(extra ...*metadata.Index) *metadata.MetaData {
		doc := message.MustDescriptor("Doc",
			message.Field("id", 1, message.TypeInt64),
			message.Field("tag", 2, message.TypeString),
		)
		b := metadata.NewBuilder(1).AddRecordType(doc, keyexpr.Field("id"))
		for _, ix := range extra {
			b = b.AddIndex(ix, "Doc")
		}
		return b.MustBuild()
	}
	rankIx := func() *metadata.Index {
		return &metadata.Index{Name: "by_tag_rank", Type: metadata.IndexRank,
			Expression: keyexpr.Field("tag")}
	}
	textIx := func() *metadata.Index {
		return &metadata.Index{Name: "tag_text", Type: metadata.IndexText,
			Expression: keyexpr.Field("tag")}
	}

	// workload: n saves, one transaction each (so byte-bucket debt can reject
	// at the next admission). It returns the summed TxnStats of the
	// transactions.
	workload := func(r *Runner, p *StoreProvider, md *metadata.MetaData, ctx context.Context, n int) (fdb.TxnStats, error) {
		doc, _ := md.RecordType("Doc")
		var total fdb.TxnStats
		for i := 0; i < n; i++ {
			rec := message.New(doc.Descriptor).
				MustSet("id", int64(i)).
				MustSet("tag", fmt.Sprintf("tag-%03d words here", i))
			var st fdb.TxnStats
			if _, err := r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
				store, err := p.Open(ctx, tr, int64(1))
				if err != nil {
					return nil, err
				}
				_, err = store.SaveRecord(rec)
				st = tr.Stats()
				return nil, err
			}); err != nil {
				return total, err
			}
			total.KeysRead += st.KeysRead
			total.BytesRead += st.BytesRead
			total.Mutations += st.Mutations
			total.Size += st.Size
		}
		return total, nil
	}

	measure := func(md *metadata.MetaData) TenantUsage {
		t.Helper()
		db := fdb.Open(nil)
		acct := NewAccountant()
		r := NewRunner(db, RunnerOptions{Accountant: acct})
		p := testProvider(t, md)
		ctx := WithTenant(context.Background(), "bytes")
		st, err := workload(r, p, md, ctx, 8)
		if err != nil {
			t.Fatal(err)
		}
		u := acct.Tenant("bytes").Snapshot()
		if u.ReadRecords != int64(st.KeysRead) || u.ReadBytes != int64(st.BytesRead) ||
			u.WriteRecords != int64(st.Mutations) || u.WriteBytes != int64(st.Size) {
			t.Errorf("billed %+v, transactions counted reads %d/%d, writes %d/%d",
				u, st.KeysRead, st.BytesRead, st.Mutations, st.Size)
		}
		return u
	}

	plain := measure(mkMD())
	rank := measure(mkMD(rankIx()))
	text := measure(mkMD(textIx()))
	if rank.WriteBytes <= plain.WriteBytes || rank.WriteRecords <= plain.WriteRecords {
		t.Errorf("rank maintenance unmetered: rank %d bytes / %d rows vs plain %d / %d",
			rank.WriteBytes, rank.WriteRecords, plain.WriteBytes, plain.WriteRecords)
	}
	if text.WriteBytes <= plain.WriteBytes || text.WriteRecords <= plain.WriteRecords {
		t.Errorf("text maintenance unmetered: text %d bytes / %d rows vs plain %d / %d",
			text.WriteBytes, text.WriteRecords, plain.WriteBytes, plain.WriteRecords)
	}

	// The byte bucket sees those writes: a burst sized between the plain and
	// rank-indexed footprints admits the former and rejects the latter.
	burst := (plain.WriteBytes + rank.WriteBytes) / 2
	runUnder := func(md *metadata.MetaData) error {
		db := fdb.Open(nil)
		gov := NewGovernor(nil, GovernorOptions{})
		gov.SetLimits("bytes", TenantLimits{BytesPerSecond: 1, ByteBurst: burst})
		r := NewRunner(db, RunnerOptions{Governor: gov})
		p := testProvider(t, md)
		_, err := workload(r, p, md, WithTenant(context.Background(), "bytes"), 8)
		return err
	}
	if err := runUnder(mkMD()); err != nil {
		t.Errorf("plain workload under byte bucket: %v", err)
	}
	err := runUnder(mkMD(rankIx()))
	var qe *QuotaExceededError
	if !errors.As(err, &qe) || qe.Resource != "byte-rate" {
		t.Errorf("rank-indexed workload must trip the byte bucket, got %v", err)
	}
}
