package kvcursor

import (
	"context"
	"fmt"
	"testing"
	"time"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
)

func seeded(t *testing.T, n int) *fdb.Database {
	t.Helper()
	db := fdb.Open(nil)
	_, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		for i := 0; i < n; i++ {
			if err := tr.Set([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func collect(t *testing.T, db *fdb.Database, opts Options, begin, end string) ([]string, cursor.NoNextReason, []byte) {
	t.Helper()
	var keys []string
	var reason cursor.NoNextReason
	var cont []byte
	_, err := db.ReadTransact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		c := New(tr, []byte(begin), []byte(end), opts)
		kvs, r, cc, err := cursor.Collect(c)
		if err != nil {
			return nil, err
		}
		keys = nil
		for _, kv := range kvs {
			keys = append(keys, string(kv.Key))
		}
		reason, cont = r, cc
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return keys, reason, cont
}

func TestForwardScan(t *testing.T) {
	db := seeded(t, 10)
	keys, reason, _ := collect(t, db, Options{}, "k", "l")
	if len(keys) != 10 || reason != cursor.SourceExhausted {
		t.Fatalf("scan: %v %v", keys, reason)
	}
	if keys[0] != "k000" || keys[9] != "k009" {
		t.Fatalf("order: %v", keys)
	}
}

func TestReverseScan(t *testing.T) {
	db := seeded(t, 5)
	keys, _, _ := collect(t, db, Options{Reverse: true}, "k", "l")
	if len(keys) != 5 || keys[0] != "k004" || keys[4] != "k000" {
		t.Fatalf("reverse: %v", keys)
	}
}

func TestSmallBatchesCoverAll(t *testing.T) {
	db := seeded(t, 20)
	keys, _, _ := collect(t, db, Options{BatchSize: 3}, "k", "l")
	if len(keys) != 20 {
		t.Fatalf("batched scan lost rows: %d", len(keys))
	}
}

func TestContinuationForward(t *testing.T) {
	db := seeded(t, 10)
	var cont []byte
	_, err := db.ReadTransact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		c := New(tr, []byte("k"), []byte("l"), Options{})
		for i := 0; i < 4; i++ {
			r, err := c.Next()
			if err != nil || !r.OK {
				t.Fatalf("step %d: %+v %v", i, r, err)
			}
			cont = r.Continuation
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	keys, _, _ := collect(t, db, Options{Continuation: cont}, "k", "l")
	if len(keys) != 6 || keys[0] != "k004" {
		t.Fatalf("resume: %v", keys)
	}
}

func TestContinuationReverse(t *testing.T) {
	db := seeded(t, 6)
	var cont []byte
	_, err := db.ReadTransact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		c := New(tr, []byte("k"), []byte("l"), Options{Reverse: true})
		r, err := c.Next()
		if err != nil || string(r.Value.Key) != "k005" {
			t.Fatalf("first reverse: %+v %v", r, err)
		}
		cont = r.Continuation
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	keys, _, _ := collect(t, db, Options{Reverse: true, Continuation: cont}, "k", "l")
	if len(keys) != 5 || keys[0] != "k004" {
		t.Fatalf("reverse resume: %v", keys)
	}
}

func TestLimiterHalt(t *testing.T) {
	db := seeded(t, 10)
	lim := cursor.NewLimiter(3, 0, time.Time{}, nil)
	keys, reason, cont := collect(t, db, Options{Limiter: lim}, "k", "l")
	if len(keys) != 3 || reason != cursor.ScanLimitReached {
		t.Fatalf("limited: %v %v", keys, reason)
	}
	rest, reason2, _ := collect(t, db, Options{Continuation: cont}, "k", "l")
	if len(rest) != 7 || reason2 != cursor.SourceExhausted {
		t.Fatalf("resume after limit: %v %v", rest, reason2)
	}
}

func TestEmptyRange(t *testing.T) {
	db := seeded(t, 3)
	keys, reason, _ := collect(t, db, Options{}, "x", "y")
	if len(keys) != 0 || reason != cursor.SourceExhausted {
		t.Fatalf("empty range: %v %v", keys, reason)
	}
}
