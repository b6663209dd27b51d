package recordlayer

import (
	"context"
	"testing"
	"time"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/message"
	"recordlayer/internal/obs"
	"recordlayer/internal/tuple"
)

// stateCacheEnv is a provider over a 4-document tenant on the virtual clock,
// every GRV and read priced at one 100µs window.
func stateCacheEnv(t *testing.T) (*Runner, *StoreProvider) {
	t.Helper()
	const window = 100 * time.Microsecond
	_, md := testSchema(t)
	db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{PerRead: window, PerGRV: window, Virtual: true}})
	r := NewRunner(db, RunnerOptions{})
	p := testProvider(t, md)
	saveDocs(t, r, p, 1, 4)
	return r, p
}

// tracedRead runs f in a read-only transaction after opening tenant 1,
// returning the transaction's simulated wait in windows and the trace.
func tracedRead(t *testing.T, r *Runner, p *StoreProvider, f func(s *Store, tr *fdb.Transaction) error) (float64, *Trace) {
	t.Helper()
	trace := NewTrace()
	var wait int64
	_, err := r.ReadRun(WithTrace(context.Background(), trace), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := p.Open(ctx, tr, int64(1))
		if err != nil {
			return nil, err
		}
		if err := f(s, tr); err != nil {
			return nil, err
		}
		wait = tr.Stats().SimWaitNanos
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return float64(wait) / float64(100*time.Microsecond), trace
}

// TestStoreStateCacheOpenWindows: a cold open costs the GRV plus one window
// that carries both the header and the index-state read; a warm open costs
// the GRV alone and issues no read.
func TestStoreStateCacheOpenWindows(t *testing.T) {
	r, p := stateCacheEnv(t)
	none := func(*Store, *fdb.Transaction) error { return nil }
	cold, trace := tracedRead(t, r, p, none)
	if cold != 2 {
		t.Fatalf("cold open waited %v windows, want 2 (GRV + one read window)", cold)
	}
	reads := trace.Named(obs.SpanRead)
	if len(reads) != 2 || reads[0].Start != reads[1].Start || reads[0].End != reads[1].End {
		t.Fatalf("cold open read spans %+v, want the header and index-state reads in one window", reads)
	}
	warm, trace := tracedRead(t, r, p, none)
	if warm != 1 {
		t.Fatalf("warm open waited %v windows, want 1 (the GRV)", warm)
	}
	if reads := trace.Named(obs.SpanRead); len(reads) != 0 {
		t.Fatalf("warm open issued reads %+v, want none", reads)
	}
	// saveDocs's open created the store (a miss that fills nothing).
	if st := p.StoreStateCacheStats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("cache stats %+v, want 1 hit and 2 misses", st)
	}
}

// TestStoreStateCacheWarmLoadWindows: a warm point load is the GRV plus the
// record read — 2 windows for the whole transaction.
func TestStoreStateCacheWarmLoadWindows(t *testing.T) {
	r, p := stateCacheEnv(t)
	none := func(*Store, *fdb.Transaction) error { return nil }
	tracedRead(t, r, p, none) // warm the cache
	windows, _ := tracedRead(t, r, p, func(s *Store, _ *fdb.Transaction) error {
		_, err := s.LoadRecordByKey(tuple.Tuple{int64(2)})
		return err
	})
	if windows != 2 {
		t.Fatalf("warm LoadRecordByKey transaction waited %v windows, want 2", windows)
	}
}

// TestStoreStateCacheWarmScanReadsNoState: on a warm store, checking that
// the index is readable reads nothing; the page reads only index entries.
func TestStoreStateCacheWarmScanReadsNoState(t *testing.T) {
	r, p := stateCacheEnv(t)
	none := func(*Store, *fdb.Transaction) error { return nil }
	tracedRead(t, r, p, none) // warm the cache
	windows, trace := tracedRead(t, r, p, func(s *Store, tr *fdb.Transaction) error {
		before := tr.Stats().KeysRead
		c, err := s.ScanIndex("by_tag", index.TupleRange{}, index.ScanOptions{})
		if err != nil {
			return err
		}
		if n := tr.Stats().KeysRead - before; n != 0 {
			t.Errorf("ScanIndex read %d keys before the first page, want 0", n)
		}
		entries, _, _, err := cursor.Collect(c)
		if err != nil {
			return err
		}
		if n := tr.Stats().KeysRead - before; n != len(entries) || n != 4 {
			t.Errorf("page of %d entries read %d keys, want one per entry", len(entries), n)
		}
		return nil
	})
	if reads := trace.Named(obs.SpanRead); windows != 2 || len(reads) != 1 {
		t.Fatalf("warm scan waited %v windows over %d reads, want 2 windows (GRV + one page read)",
			windows, len(reads))
	}
}

// TestStoreStateCacheHitConflicts: a store opened from the cache in a
// read-write transaction still conflicts with a concurrent change of its
// index states or header, exactly as the reads a miss makes would.
func TestStoreStateCacheHitConflicts(t *testing.T) {
	for _, c := range []struct {
		name     string
		change   func(s *Store) error
		conflict bool
	}{
		{"index state", func(s *Store) error { return s.MarkIndexWriteOnly("by_tag") }, true},
		{"header", func(s *Store) error { return s.SetUserVersion(7) }, true},
		{"unrelated record", func(s *Store) error {
			doc, _ := testSchema(t)
			_, err := s.SaveRecord(message.New(doc).MustSet("id", int64(99)).MustSet("tag", "x"))
			return err
		}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, md := testSchema(t)
			db := fdb.Open(nil)
			r := NewRunner(db, RunnerOptions{})
			pa, pb := testProvider(t, md), testProvider(t, md)
			saveDocs(t, r, pa, 1, 2)
			ctx := context.Background()
			if _, err := r.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
				return pb.Open(ctx, tr, int64(1))
			}); err != nil {
				t.Fatal(err)
			}
			tr := db.CreateTransaction()
			sb, err := pb.Open(ctx, tr, int64(1))
			if err != nil {
				t.Fatal(err)
			}
			if st := pb.StoreStateCacheStats(); st.Hits != 1 {
				t.Fatalf("provider B's open was not a cache hit: %+v", st)
			}
			doc, _ := testSchema(t)
			if _, err := sb.SaveRecord(message.New(doc).MustSet("id", int64(10)).MustSet("tag", "even")); err != nil {
				t.Fatal(err)
			}
			// Provider A commits between B's read version and B's commit.
			if _, err := r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
				sa, err := pa.Open(ctx, tr, int64(1))
				if err != nil {
					return nil, err
				}
				return nil, c.change(sa)
			}); err != nil {
				t.Fatal(err)
			}
			err = tr.Commit()
			if c.conflict && !fdb.IsConflict(err) {
				t.Fatalf("B committed over A's %s change (err=%v), want not_committed", c.name, err)
			}
			if !c.conflict && err != nil {
				t.Fatalf("B failed to commit beside an unrelated write: %v", err)
			}
		})
	}
}
