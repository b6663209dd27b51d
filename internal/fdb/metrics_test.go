package fdb

import (
	"context"
	"testing"
)

// TestMetricsSnapshotDelta exercises the phase-delta idiom the experiments
// use: snapshot, run traffic, snapshot again, and the delta isolates exactly
// that traffic's I/O.
func TestMetricsSnapshotDelta(t *testing.T) {
	db := Open(nil)
	_, err := db.Transact(context.Background(), func(_ context.Context, tr *Transaction) (interface{}, error) {
		return nil, tr.Set([]byte("warmup"), []byte("x"))
	})
	if err != nil {
		t.Fatal(err)
	}

	base := db.Metrics().Snapshot()
	if base.Commits == 0 || base.KeysWritten == 0 {
		t.Fatalf("warmup not visible in snapshot: %+v", base)
	}
	const n = 5
	for i := 0; i < n; i++ {
		_, err := db.Transact(context.Background(), func(_ context.Context, tr *Transaction) (interface{}, error) {
			if _, err := tr.Get([]byte("warmup")); err != nil {
				return nil, err
			}
			return nil, tr.Set([]byte{byte(i)}, []byte("v"))
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	d := db.Metrics().Snapshot().Delta(base)
	if d.Commits != n || d.KeysWritten != n || d.KeysRead != n {
		t.Fatalf("delta %+v, want %d commits/keys written/keys read", d, n)
	}
	if d.TransactionsStarted != n || d.Conflicts != 0 || d.Retries != 0 {
		t.Fatalf("delta %+v, want %d txns and no conflicts/retries", d, n)
	}

	// Delta of a snapshot against itself is zero.
	s := db.Metrics().Snapshot()
	if z := s.Delta(s); z != (MetricsSnapshot{}) {
		t.Fatalf("self-delta not zero: %+v", z)
	}
}
