package recordlayer

import (
	"context"
	"errors"
	"testing"
	"time"

	"recordlayer/internal/fdb"
	"recordlayer/internal/message"
)

// collectPages pages a query to exhaustion across one Runner.Run transaction
// per page, returning every record id in order.
func collectPages(t *testing.T, r *Runner, p *StoreProvider, props ExecuteProperties, maxPages int) []int64 {
	t.Helper()
	var ids []int64
	q := Query{RecordTypes: []string{"Doc"}}
	for page := 0; ; page++ {
		if page >= maxPages {
			t.Fatalf("paging did not terminate after %d pages (ids so far: %v)", maxPages, ids)
		}
		res, err := r.ReadRun(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			store, err := p.Open(ctx, tr, int64(1))
			if err != nil {
				return nil, err
			}
			cur, err := store.ExecuteQuery(ctx, q, props)
			if err != nil {
				return nil, err
			}
			recs, err := cur.ToList()
			if err != nil {
				return nil, err
			}
			for _, rec := range recs {
				id, _ := rec.Message.Get("id")
				ids = append(ids, id.(int64))
			}
			return cur, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		cur := res.(*RecordCursor)
		if cur.Exhausted() {
			return ids
		}
		props = props.WithContinuation(cur.Continuation())
	}
}

// TestSkipContinuationPaging is the regression for Skip being re-applied on
// every resumed page: paging Skip=3 RowLimit=2 across separate transactions
// must return records 3..9 exactly once.
func TestSkipContinuationPaging(t *testing.T) {
	_, md := testSchema(t)
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{})
	p := testProvider(t, md)
	saveDocs(t, r, p, 1, 10)

	ids := collectPages(t, r, p, ExecuteProperties{Skip: 3, RowLimit: 2}, 10)
	want := []int64{3, 4, 5, 6, 7, 8, 9}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

// TestSkipContinuationAcrossScanLimit halts the query mid-skip with a scan
// limit: the continuation must remember the outstanding skip so the resumed
// pages neither re-deliver nor silently drop records.
func TestSkipContinuationAcrossScanLimit(t *testing.T) {
	_, md := testSchema(t)
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{})
	p := testProvider(t, md)
	saveDocs(t, r, p, 1, 12)

	// Each transaction delivers roughly one record under this scan limit (a
	// record spans ~2 scanned pairs), so the Skip=5 phase alone spans
	// several transactions before any record is returned — the halts land
	// mid-skip and the continuation must carry the outstanding count.
	ids := collectPages(t, r, p, ExecuteProperties{Skip: 5, ScanRecordLimit: 3}, 25)
	want := []int64{5, 6, 7, 8, 9, 10, 11}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

// TestSkipPastEnd checks a Skip larger than the result set yields nothing
// and terminates.
func TestSkipPastEnd(t *testing.T) {
	_, md := testSchema(t)
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{})
	p := testProvider(t, md)
	saveDocs(t, r, p, 1, 4)

	ids := collectPages(t, r, p, ExecuteProperties{Skip: 10, RowLimit: 3}, 10)
	if len(ids) != 0 {
		t.Fatalf("ids = %v, want none", ids)
	}
}

// TestSkipSingleTransactionUnchanged checks the non-paged path still skips
// exactly once (no envelope in play on the first execution).
func TestSkipSingleTransactionUnchanged(t *testing.T) {
	_, md := testSchema(t)
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{})
	p := testProvider(t, md)
	saveDocs(t, r, p, 1, 6)

	ids := collectPages(t, r, p, ExecuteProperties{Skip: 2}, 2)
	want := []int64{2, 3, 4, 5}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
}

// TestSkipNoProgressHaltKeepsNilContinuation: a halt before any record makes
// progress carries a nil inner continuation; the skip envelope must preserve
// that nil rather than manufacture a non-nil continuation that would restart
// from scratch forever. Scan and byte limits always admit the first record
// now (the sub-record progress guarantee), so the only no-progress halt left
// is an already-expired time budget.
func TestSkipNoProgressHaltKeepsNilContinuation(t *testing.T) {
	_, md := testSchema(t)
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{})
	p := testProvider(t, md)
	saveDocs(t, r, p, 1, 6)

	// A manual clock that advances on every reading: the 1ns budget expires
	// before the first record can be admitted.
	base := time.Now()
	calls := 0
	clock := func() time.Time {
		calls++
		return base.Add(time.Duration(calls) * time.Millisecond)
	}
	_, err := r.ReadRun(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := p.Open(ctx, tr, int64(1))
		if err != nil {
			return nil, err
		}
		cur, err := store.ExecuteQuery(ctx, Query{RecordTypes: []string{"Doc"}},
			ExecuteProperties{Skip: 2, TimeBudget: time.Nanosecond, Clock: clock})
		if err != nil {
			return nil, err
		}
		recs, err := cur.ToList()
		if err != nil {
			return nil, err
		}
		if len(recs) != 0 {
			t.Errorf("recs = %d, want 0", len(recs))
		}
		if cont := cur.Continuation(); cont != nil {
			t.Errorf("no-progress halt produced continuation %x, want nil", cont)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSkipContinuationEncoding unit-tests the envelope round trip.
func TestSkipContinuationEncoding(t *testing.T) {
	for _, tc := range []struct {
		remaining int
		inner     []byte
	}{
		{0, []byte("plan-cont")},
		{7, []byte("plan-cont")},
		{300, nil},
	} {
		enc := encodeSkipContinuation(tc.remaining, tc.inner)
		rem, inner, err := decodeSkipContinuation(enc)
		if err != nil {
			t.Fatalf("decode(%v): %v", tc, err)
		}
		if rem != tc.remaining || string(inner) != string(tc.inner) {
			t.Errorf("round trip %v -> rem=%d inner=%q", tc, rem, inner)
		}
	}
	if enc := encodeSkipContinuation(0, nil); enc != nil {
		t.Errorf("encode(0, nil) = %v, want nil", enc)
	}
	// A continuation without the envelope (legacy or skip-free) passes
	// through with nothing left to skip.
	rem, inner, err := decodeSkipContinuation([]byte("raw"))
	if err != nil || rem != 0 || string(inner) != "raw" {
		t.Errorf("raw passthrough: %d %q %v", rem, inner, err)
	}
}

// TestTxnTimeIncludesQueueWait is the regression for the latency clock
// starting after admission: a transaction that waits for a concurrency slot
// must show that wait in Usage.TxnTime.
func TestTxnTimeIncludesQueueWait(t *testing.T) {
	db := fdb.Open(nil)
	gov := NewGovernor(nil, GovernorOptions{})
	gov.SetLimits("queued", TenantLimits{MaxConcurrent: 1})
	r := NewRunner(db, RunnerOptions{Governor: gov})
	ctx := WithTenant(context.Background(), "queued")

	hold, err := gov.Admit(ctx, "queued")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			return nil, tr.Set([]byte("k"), []byte("v"))
		})
		done <- err
	}()
	const wait = 60 * time.Millisecond
	time.Sleep(wait)
	hold()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	u := gov.Accountant().Tenant("queued").Snapshot()
	if u.Transactions != 1 {
		t.Fatalf("Transactions = %d", u.Transactions)
	}
	if u.TxnTime < wait/2 {
		t.Errorf("TxnTime = %v hides the ~%v queue wait", u.TxnTime, wait)
	}
	if u.Throttled != 1 {
		t.Errorf("Throttled = %d, want 1", u.Throttled)
	}
}

// TestRunnerByteQuotaEndToEnd drives the full loop: runner-bound tenant,
// byte quota from the governor, bytes metered by the transaction feeding
// ChargeBytes, and the typed byte-rate rejection surfacing from Run.
func TestRunnerByteQuotaEndToEnd(t *testing.T) {
	_, md := testSchema(t)
	db := fdb.Open(nil)
	gov := NewGovernor(nil, GovernorOptions{})
	gov.SetLimits("hog", TenantLimits{BytesPerSecond: 1, ByteBurst: 256})
	r := NewRunner(db, RunnerOptions{Governor: gov})
	p := testProvider(t, md)
	ctx := WithTenant(context.Background(), "hog")

	doc, _ := testSchema(t)
	var lastErr error
	for i := 0; i < 50 && lastErr == nil; i++ {
		rec := message.New(doc).MustSet("id", int64(i)).MustSet("tag", "x")
		_, lastErr = r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			store, err := p.Open(ctx, tr, int64(3))
			if err != nil {
				return nil, err
			}
			_, err = store.SaveRecord(rec)
			return nil, err
		})
	}
	var qe *QuotaExceededError
	if !errors.As(lastErr, &qe) || qe.Resource != "byte-rate" {
		t.Fatalf("want byte-rate quota error, got %v", lastErr)
	}
	// The transaction metered real bytes into the governor's bucket.
	if u := gov.Accountant().Tenant("hog").Snapshot(); u.WriteBytes == 0 {
		t.Errorf("no bytes metered: %+v", u)
	}
}
