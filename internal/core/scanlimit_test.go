package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/tuple"
)

// TestScanLimitSmallerThanRecordFootprint is the regression for the
// sub-record scan-limit bug: a ScanRecordLimit smaller than one record's
// key-value footprint used to halt mid-record with a nil continuation and
// make no progress across executions. The limiter is now charged per
// assembled record, so every execution admits at least one record (the
// paper's "first record is always admitted" rule) and paging terminates.
func TestScanLimitSmallerThanRecordFootprint(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	// Split chunk size small enough that each record spans several data pairs
	// in addition to its version slot: 4+ pairs per record, so limits 1 and 2
	// are both far below a single record's pair footprint.
	cfg := Config{SplitChunkSize: 40}
	const n = 6
	_, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := Open(tr, md, sp, OpenOptions{CreateIfMissing: true, Config: cfg})
		if err != nil {
			return nil, err
		}
		for i := int64(0); i < n; i++ {
			u := mkUser(i, fmt.Sprintf("user-%02d", i), i)
			u.MustSet("bio", strings.Repeat("lorem ipsum ", 12))
			if _, err := s.SaveRecord(u); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, limit := range []int{1, 2} {
		var got []int64
		var cont []byte
		for page := 0; ; page++ {
			if page > 2*n {
				t.Fatalf("limit %d: paging did not terminate (ids so far %v)", limit, got)
			}
			var reason cursor.NoNextReason
			_, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
				s, err := Open(tr, md, sp, OpenOptions{Config: cfg})
				if err != nil {
					return nil, err
				}
				lim := cursor.NewLimiter(limit, 0, time.Time{}, nil)
				recs, rsn, c2, err := cursor.Collect(s.ScanRecords(ScanOptions{Limiter: lim, Continuation: cont}))
				if err != nil {
					return nil, err
				}
				if len(recs) == 0 && rsn != cursor.SourceExhausted {
					t.Fatalf("limit %d page %d: no progress (reason %v)", limit, page, rsn)
				}
				if rsn == cursor.ScanLimitReached && len(recs) != limit {
					t.Errorf("limit %d page %d: delivered %d records, want exactly %d per execution",
						limit, page, len(recs), limit)
				}
				for _, r := range recs {
					if r.SplitChunks < 3 {
						t.Fatalf("record %v spans only %d pairs; the regression needs multi-pair records",
							r.PrimaryKey, r.SplitChunks)
					}
					id, _ := r.Message.Get("id")
					got = append(got, id.(int64))
				}
				cont, reason = c2, rsn
				return nil, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if reason == cursor.SourceExhausted {
				break
			}
			if cont == nil {
				t.Fatalf("limit %d: out-of-band halt lost its continuation", limit)
			}
		}
		if len(got) != n {
			t.Fatalf("limit %d: collected ids %v, want %d records exactly once", limit, got, n)
		}
		for i, id := range got {
			if id != int64(i) {
				t.Fatalf("limit %d: ids %v out of order or duplicated", limit, got)
			}
		}
	}
}

// TestScanByteLimitAdmitsFirstRecord: the byte limit shares the per-record
// admission guarantee — a budget smaller than one record's bytes still
// delivers one record per execution.
func TestScanByteLimitAdmitsFirstRecord(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	saveUsers(t, db, md, sp,
		mkUser(1, "alpha", 10), mkUser(2, "beta", 20), mkUser(3, "gamma", 30))

	var got []int64
	var cont []byte
	for page := 0; ; page++ {
		if page > 10 {
			t.Fatalf("paging did not terminate: %v", got)
		}
		var reason cursor.NoNextReason
		withStore(t, db, md, sp, func(s *Store) error {
			lim := cursor.NewLimiter(0, 1, time.Time{}, nil) // 1 byte: below any record
			recs, rsn, c2, err := cursor.Collect(s.ScanRecords(ScanOptions{Limiter: lim, Continuation: cont}))
			if err != nil {
				return err
			}
			if rsn == cursor.ByteLimitReached && len(recs) != 1 {
				t.Errorf("page %d: %d records under a sub-record byte limit, want 1", page, len(recs))
			}
			for _, r := range recs {
				got = append(got, r.PrimaryKey[len(r.PrimaryKey)-1].(int64))
			}
			cont, reason = c2, rsn
			return nil
		})
		if reason == cursor.SourceExhausted {
			break
		}
	}
	if want := []int64{1, 2, 3}; !tuple.Equal(toTuple(got), toTuple(want)) {
		t.Fatalf("ids = %v, want %v", got, want)
	}
}

func toTuple(ids []int64) tuple.Tuple {
	t := make(tuple.Tuple, len(ids))
	for i, id := range ids {
		t[i] = id
	}
	return t
}
