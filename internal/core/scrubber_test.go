package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"recordlayer/internal/fdb"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// scrubEnv builds a store of n users and returns a scrubber over the
// user_by_name VALUE index.
func scrubEnv(t *testing.T, n int) (*fdb.Database, *Scrubber) {
	t.Helper()
	db, md, sp := newStoreEnv(t)
	withStore(t, db, md, sp, func(s *Store) error {
		for i := 0; i < n; i++ {
			u := mkUser(int64(i+1), "user-"+string(rune('a'+i%26)), int64(i*10))
			if _, err := s.SaveRecord(u); err != nil {
				return err
			}
		}
		return nil
	})
	return db, &Scrubber{DB: db, MetaData: md, Space: sp, IndexName: "user_by_name", BatchSize: 4}
}

// corrupt performs raw index-key surgery inside one transaction.
func corrupt(t *testing.T, db *fdb.Database, scr *Scrubber, f func(s *Store, kvs []fdb.KeyValue) error) {
	t.Helper()
	_, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := Open(tr, scr.MetaData, scr.Space, OpenOptions{})
		if err != nil {
			return nil, err
		}
		begin, end := s.IndexSubspace(scr.IndexName).Range()
		kvs, _, err := tr.GetRange(begin, end, fdb.RangeOptions{})
		if err != nil {
			return nil, err
		}
		return nil, f(s, kvs)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScrubCleanStore(t *testing.T) {
	_, scr := scrubEnv(t, 10)
	rep, err := scr.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("fresh store not clean: %v", rep.Issues)
	}
	if rep.EntriesScanned != 10 || rep.RecordsScanned != 10 {
		t.Fatalf("scanned %d entries / %d records, want 10/10", rep.EntriesScanned, rep.RecordsScanned)
	}
}

func TestScrubDetectsAllThreeKinds(t *testing.T) {
	db, scr := scrubEnv(t, 10)
	corrupt(t, db, scr, func(s *Store, kvs []fdb.KeyValue) error {
		ispace := s.IndexSubspace(scr.IndexName)
		// Dangling: an entry whose primary key names a nonexistent record.
		et, err := ispace.Unpack(kvs[0].Key)
		if err != nil {
			return err
		}
		ghost := append(tuple.Tuple{}, et...)
		ghost[len(ghost)-1] = int64(999)
		if err := s.tr.Set(ispace.Pack(ghost), nil); err != nil {
			return err
		}
		// Missing: clear an entry a record legitimately produces.
		if err := s.tr.Clear(kvs[3].Key); err != nil {
			return err
		}
		// Mismatch: a well-formed but wrong covering value.
		return s.tr.Set(kvs[5].Key, tuple.Tuple{"stale"}.Pack())
	})
	rep, err := scr.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count(ScrubDangling) != 1 || rep.Count(ScrubMissing) != 1 || rep.Count(ScrubMismatch) != 1 {
		t.Fatalf("issues = %v, want one of each kind", rep.Issues)
	}
	if rep.Repaired != 0 {
		t.Fatalf("report-only scrub repaired %d issues", rep.Repaired)
	}
	// Issue strings carry kind, index, and keys for operators.
	if s := rep.Issues[0].String(); !strings.Contains(s, "by_name") {
		t.Errorf("issue string %q should name the index", s)
	}
}

func TestScrubRepairConvergesToClean(t *testing.T) {
	db, scr := scrubEnv(t, 12)
	corrupt(t, db, scr, func(s *Store, kvs []fdb.KeyValue) error {
		ispace := s.IndexSubspace(scr.IndexName)
		et, err := ispace.Unpack(kvs[1].Key)
		if err != nil {
			return err
		}
		ghost := append(tuple.Tuple{}, et...)
		ghost[len(ghost)-1] = int64(777)
		if err := s.tr.Set(ispace.Pack(ghost), nil); err != nil {
			return err
		}
		if err := s.tr.Clear(kvs[4].Key); err != nil {
			return err
		}
		return s.tr.Set(kvs[7].Key, tuple.Tuple{"wrong"}.Pack())
	})
	fix := *scr
	fix.Repair = true
	rep, err := fix.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired < 3 {
		t.Fatalf("repaired %d, want >= 3", rep.Repaired)
	}
	rep, err = scr.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("store still inconsistent after repair: %v", rep.Issues)
	}
}

// TestScrubSmallBatchesResume: a batch size far below the store size forces
// both directions through their continuation paths without losing or
// double-counting anything.
func TestScrubSmallBatchesResume(t *testing.T) {
	_, scr := scrubEnv(t, 23)
	scr.BatchSize = 2
	rep, err := scr.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.EntriesScanned != 23 || rep.RecordsScanned != 23 {
		t.Fatalf("scanned %d entries / %d records, want 23/23", rep.EntriesScanned, rep.RecordsScanned)
	}
	if !rep.Clean() {
		t.Fatalf("clean store reported issues under small batches: %v", rep.Issues)
	}
}

func TestScrubRefusesUnreadableIndex(t *testing.T) {
	db, scr := scrubEnv(t, 4)
	_, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := Open(tr, scr.MetaData, scr.Space, OpenOptions{})
		if err != nil {
			return nil, err
		}
		return nil, s.MarkIndexWriteOnly(scr.IndexName)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scr.Scrub(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "readable") {
		t.Fatalf("scrub of a write-only index: err = %v, want readable-index refusal", err)
	}
}

func TestScrubRefusesNonValueIndex(t *testing.T) {
	_, scr := scrubEnv(t, 2)
	scr.IndexName = "rec_count"
	if _, err := scr.Scrub(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "VALUE") {
		t.Fatalf("scrub of an aggregate index: err = %v, want VALUE-only refusal", err)
	}
}

// TestOnlineIndexerBuildsThroughFaultStorm: the batched online build, whose
// batches are idempotent by construction, completes through injected
// conflicts, stale reads, and maybe-committed commits — and the built index
// passes a full scrub.
func TestOnlineIndexerBuildsThroughFaultStorm(t *testing.T) {
	inj := fdb.NewFaultInjector(fdb.FaultConfig{
		Seed:                21,
		PCommitNotCommitted: 0.1,
		PCommitUnknown:      0.1,
		PReadTooOld:         0.02,
		PReadFuture:         0.02,
	})
	inj.Disable()
	db := fdb.Open(&fdb.Options{Faults: inj, Sleep: func(time.Duration) {}})
	md := testSchema(t)
	space := subspace.FromTuple(tuple.Tuple{"tenant", int64(1)})
	saveN := 150
	withStore(t, db, md, space, func(s *Store) error {
		for i := 0; i < saveN; i++ {
			u := mkUser(int64(i+1), "u-"+string(rune('a'+i%26)), int64(i))
			if _, err := s.SaveRecord(u); err != nil {
				return err
			}
		}
		return s.MarkIndexDisabled("user_by_name")
	})

	inj.Enable()
	ixr := &OnlineIndexer{DB: db, MetaData: md, Space: space, IndexName: "user_by_name", BatchSize: 16}
	total, err := ixr.Build(context.Background())
	inj.Disable()
	if err != nil {
		t.Fatalf("build under faults: %v", err)
	}
	// The returned count may undercount: a batch whose commit ended
	// unknown-but-applied advanced the durable progress key, and the retry
	// only counts the records past it. Completeness is asserted by the scrub
	// below, not by the counter.
	if total <= 0 || total > saveN {
		t.Fatalf("indexed %d records, want within (0, %d]", total, saveN)
	}
	if inj.Counts().Total() == 0 {
		t.Fatal("the storm dealt no faults; the test proves nothing")
	}

	scr := &Scrubber{DB: db, MetaData: md, Space: space, IndexName: "user_by_name", BatchSize: 32}
	rep, err := scr.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("index built under faults is inconsistent: %v", rep.Issues)
	}
	if rep.EntriesScanned != saveN || rep.RecordsScanned != saveN {
		t.Fatalf("scrubbed %d entries / %d records, want %d/%d", rep.EntriesScanned, rep.RecordsScanned, saveN, saveN)
	}
}
