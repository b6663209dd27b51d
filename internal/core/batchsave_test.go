package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/resource"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// dumpKeyspace renders every committed pair for byte-level comparison.
func dumpKeyspace(t *testing.T, db *fdb.Database) []string {
	t.Helper()
	var out []string
	_, err := db.ReadTransact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		kvs, _, err := tr.Snapshot().GetRange([]byte{0x00}, []byte{0xFF, 0xFF, 0xFF}, fdb.RangeOptions{})
		if err != nil {
			return nil, err
		}
		out = out[:0]
		for _, kv := range kvs {
			out = append(out, fmt.Sprintf("%x=%x", kv.Key, kv.Value))
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func batchUsers(n int) []*message.Message {
	msgs := make([]*message.Message, n)
	for i := range msgs {
		u := message.New(userDesc()).
			MustSet("id", int64(i)).
			MustSet("name", fmt.Sprintf("user-%03d", i)).
			MustSet("score", int64(i*7%50)).
			MustSet("bio", "some words for the text index")
		u.MustSet("tags", []interface{}{fmt.Sprintf("t%d", i%3), "common"})
		msgs[i] = u
	}
	return msgs
}

// TestSaveRecordsMatchesLoop: SaveRecords produces a byte-identical keyspace
// — records, version slots, and every index type's entries — and identical
// tenant metering, compared with a loop of SaveRecord. Covers both the
// all-new case and re-saving over existing records.
func TestSaveRecordsMatchesLoop(t *testing.T) {
	md := testSchema(t)
	sp := subspace.FromTuple(tuple.Tuple{"tenant", int64(1)})
	run := func(batch bool) (*fdb.Database, resource.Usage) {
		db := fdb.Open(nil)
		acct := resource.NewAccountant()
		meter := acct.Tenant("t1")
		save := func(msgs []*message.Message) {
			_, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
				tr.SetMeter(meter)
				s, err := Open(tr, md, sp, OpenOptions{CreateIfMissing: true})
				if err != nil {
					return nil, err
				}
				if batch {
					_, err = s.SaveRecords(msgs)
					return nil, err
				}
				for _, m := range msgs {
					if _, err := s.SaveRecord(m); err != nil {
						return nil, err
					}
				}
				return nil, nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		msgs := batchUsers(12)
		save(msgs) // all new
		for i, m := range msgs {
			m.MustSet("score", int64(100+i)) // move rank/sum/max entries
			m.MustSet("name", fmt.Sprintf("renamed-%03d", i))
		}
		save(msgs) // all replacing
		return db, meter.Snapshot()
	}
	dbLoop, usageLoop := run(false)
	dbBatch, usageBatch := run(true)
	wantKeys := dumpKeyspace(t, dbLoop)
	gotKeys := dumpKeyspace(t, dbBatch)
	if len(wantKeys) != len(gotKeys) {
		t.Fatalf("keyspace size: batch %d pairs, loop %d", len(gotKeys), len(wantKeys))
	}
	for i := range wantKeys {
		if wantKeys[i] != gotKeys[i] {
			t.Fatalf("pair %d differs:\n batch %s\n loop  %s", i, gotKeys[i], wantKeys[i])
		}
	}
	usageLoop.Tenant, usageBatch.Tenant = "", ""
	if usageLoop != usageBatch {
		t.Fatalf("metering differs:\n batch %+v\n loop  %+v", usageBatch, usageLoop)
	}
}

// TestSaveRecordsDuplicatePK: a primary key repeated within one batch behaves
// like sequential saves — the later save replaces the earlier, indexes stay
// consistent.
func TestSaveRecordsDuplicatePK(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	withStore(t, db, md, sp, func(s *Store) error {
		recs, err := s.SaveRecords([]*message.Message{
			mkUser(1, "first", 10),
			mkUser(2, "other", 20),
			mkUser(1, "second", 30), // same pk as the first
		})
		if err != nil {
			return err
		}
		if len(recs) != 3 {
			return fmt.Errorf("got %d records", len(recs))
		}
		return nil
	})
	withStore(t, db, md, sp, func(s *Store) error {
		rec, err := s.LoadRecordByKey(tuple.Tuple{"User", int64(1)})
		if err != nil {
			return err
		}
		name, _ := rec.Message.Get("name")
		if name != "second" {
			return fmt.Errorf("duplicate pk: load sees %q, want the later save", name)
		}
		// The index must hold entries for the final state only.
		c, err := s.ScanIndex("user_by_name", index.TupleRange{}, index.ScanOptions{})
		if err != nil {
			return err
		}
		var names []string
		for {
			r, err := c.Next()
			if err != nil {
				return err
			}
			if !r.OK {
				break
			}
			names = append(names, fmt.Sprint(r.Value.Key[0]))
		}
		if strings.Join(names, ",") != "other,second" {
			return fmt.Errorf("index entries %v, want [other second]", names)
		}
		return nil
	})
}

// TestSaveRecordsOverlapsOldLoads: under a virtual latency model, a batch of
// N saves waits ~1 window for its N old-record loads where the sequential
// loop waits N — the write path's issue-then-await payoff, and the
// sub-linear-wait acceptance criterion of the batched save API.
func TestSaveRecordsOverlapsOldLoads(t *testing.T) {
	const window = time.Millisecond
	const n = 20
	// Value + sum indexes only: their maintenance does no reads, so the
	// old-record loads are the only read I/O and the window math is exact.
	md := metadata.NewBuilder(1).
		AddRecordType(userDesc(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		AddIndex(&metadata.Index{Name: "by_name", Type: metadata.IndexValue,
			Expression: keyexpr.Field("name")}, "User").
		AddIndex(&metadata.Index{Name: "score_sum", Type: metadata.IndexSum,
			Expression: keyexpr.Ungrouped(keyexpr.Field("score"))}, "User").
		MustBuild()
	sp := subspace.FromTuple(tuple.Tuple{"tenant", int64(1)})
	wait := func(batch bool) int64 {
		db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{PerRead: window, Virtual: true}})
		var w int64
		_, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := Open(tr, md, sp, OpenOptions{CreateIfMissing: true})
			if err != nil {
				return nil, err
			}
			before := tr.Stats().SimWaitNanos
			msgs := make([]*message.Message, n)
			for i := range msgs {
				msgs[i] = mkUser(int64(i), fmt.Sprintf("u%03d", i), int64(i))
			}
			if batch {
				_, err = s.SaveRecords(msgs)
				if err != nil {
					return nil, err
				}
			} else {
				for _, m := range msgs {
					if _, err := s.SaveRecord(m); err != nil {
						return nil, err
					}
				}
			}
			w = tr.Stats().SimWaitNanos - before
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	sequential := wait(false)
	batched := wait(true)
	// Open loaded every index state, so saves read none: n windows
	// sequentially, 1 overlapped.
	if want := int64(n * window); sequential != want {
		t.Fatalf("sequential saves waited %v, want %v (one window per old-load)",
			time.Duration(sequential), time.Duration(want))
	}
	if want := int64(1 * window); batched != want {
		t.Fatalf("batched saves waited %v, want %v (all old-loads in one window)",
			time.Duration(batched), time.Duration(want))
	}
}

// TestSaveRecordsOverlapsIndexReads: with read-heavy index types in the
// schema (rank skip-list floors, text bunched-map boundary scans, value
// uniqueness probes), a batched save pipelines every record's maintenance
// reads through the two-phase maintainer API — the whole batch waits a small
// constant number of windows where the loop pays several per record.
func TestSaveRecordsOverlapsIndexReads(t *testing.T) {
	const window = time.Millisecond
	const n = 12
	md := testSchema(t)
	sp := subspace.FromTuple(tuple.Tuple{"tenant", int64(1)})
	wait := func(batch bool) int64 {
		db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{PerRead: window, Virtual: true}})
		var w int64
		_, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
			s, err := Open(tr, md, sp, OpenOptions{CreateIfMissing: true})
			if err != nil {
				return nil, err
			}
			before := tr.Stats().SimWaitNanos
			msgs := batchUsers(n)
			if batch {
				_, err = s.SaveRecords(msgs)
				if err != nil {
					return nil, err
				}
			} else {
				for _, m := range msgs {
					if _, err := s.SaveRecord(m); err != nil {
						return nil, err
					}
				}
			}
			w = tr.Stats().SimWaitNanos - before
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	sequential := wait(false)
	batched := wait(true)
	// The loop pays at least the old-load window plus one maintenance window
	// per record; the batch shares each phase's windows across all records.
	if min := int64(2*n) * int64(window); sequential < min {
		t.Fatalf("sequential saves waited %v, expected >= %v", time.Duration(sequential), time.Duration(min))
	}
	if batched*3 > sequential {
		t.Fatalf("batched saves waited %v, not ≥3× below sequential %v",
			time.Duration(batched), time.Duration(sequential))
	}
}

// TestInsertRecord: the caller-asserted-new save path writes the same state
// as SaveRecord for a fresh record, rejects existing records without
// writing, and conflicts with a concurrent insert of the same primary key.
func TestInsertRecord(t *testing.T) {
	dbSave, md, sp := newStoreEnv(t)
	dbIns := fdb.Open(nil)
	withStore(t, dbSave, md, sp, func(s *Store) error {
		_, err := s.SaveRecord(mkUser(7, "seven", 70))
		return err
	})
	withStore(t, dbIns, md, sp, func(s *Store) error {
		_, err := s.InsertRecord(mkUser(7, "seven", 70))
		return err
	})
	want, got := dumpKeyspace(t, dbSave), dumpKeyspace(t, dbIns)
	if len(want) != len(got) {
		t.Fatalf("insert wrote %d pairs, save wrote %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("pair %d differs:\n insert %s\n save   %s", i, got[i], want[i])
		}
	}

	// Inserting an existing record errors and writes nothing.
	_, err := dbIns.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := Open(tr, md, sp, OpenOptions{})
		if err != nil {
			return nil, err
		}
		if _, err := s.InsertRecord(mkUser(7, "renamed", 1)); err == nil {
			return nil, fmt.Errorf("InsertRecord over existing record succeeded")
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if after := dumpKeyspace(t, dbIns); len(after) != len(got) {
		t.Fatalf("failed insert mutated the store: %d pairs, was %d", len(after), len(got))
	}

	// The probe is conflict-checked: two transactions inserting the same new
	// primary key cannot both commit.
	db := fdb.Open(nil)
	tr1 := db.CreateTransaction()
	tr2 := db.CreateTransaction()
	insert := func(tr *fdb.Transaction, name string) error {
		s, err := Open(tr, md, sp, OpenOptions{CreateIfMissing: true})
		if err != nil {
			return err
		}
		_, err = s.InsertRecord(mkUser(99, name, 1))
		return err
	}
	if err := insert(tr1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := insert(tr2, "b"); err != nil {
		t.Fatal(err)
	}
	if err := tr1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tr2.Commit(); !fdb.IsConflict(err) {
		t.Fatalf("second insert of the same pk committed (err=%v), want conflict", err)
	}
}

// TestIndexStateCached: IndexState reads no key — Open loaded every state —
// and setIndexState keeps the loaded states coherent.
func TestIndexStateCached(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	withStore(t, db, md, sp, func(s *Store) error {
		before := s.tr.Stats().KeysRead
		for i := 0; i < 5; i++ {
			st := s.IndexState("user_by_name")
			if st != metadata.StateReadable {
				return fmt.Errorf("state = %v", st)
			}
		}
		if after := s.tr.Stats().KeysRead; after != before {
			t.Errorf("cached IndexState still reads: %d -> %d", before, after)
		}
		if err := s.MarkIndexWriteOnly("user_by_name"); err != nil {
			return err
		}
		st := s.IndexState("user_by_name")
		if st != metadata.StateWriteOnly {
			return fmt.Errorf("after MarkIndexWriteOnly: state = %v, cache went stale", st)
		}
		return nil
	})
}
