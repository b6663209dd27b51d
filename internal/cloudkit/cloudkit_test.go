package cloudkit

import (
	"context"
	"fmt"
	"testing"

	"recordlayer/internal/core"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
)

func notesSchema() ContainerSchema {
	return ContainerSchema{
		Name: "com.example.notes",
		Types: []RecordTypeDef{
			{Name: "Note", Fields: []*message.FieldDescriptor{
				message.Field("title", 1, message.TypeString),
				message.Field("body", 2, message.TypeString),
			}},
			{Name: "Folder", Fields: []*message.FieldDescriptor{
				message.Field("label", 1, message.TypeString),
			}},
		},
		Indexes: []*metadata.Index{
			{Name: "note_by_title", Type: metadata.IndexValue,
				Expression: keyexpr.Field("title"), RecordTypes: []string{"Note"}},
		},
	}
}

func newEnv(t testing.TB) (*fdb.Database, *Service, *Container) {
	t.Helper()
	db := fdb.Open(nil)
	svc, err := NewService(5)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := svc.DefineContainer(notesSchema())
	if err != nil {
		t.Fatal(err)
	}
	return db, svc, ct
}

func withUser(t testing.TB, db *fdb.Database, svc *Service, ct *Container, user int64,
	f func(store *core.Store, tr *fdb.Transaction) error) {
	t.Helper()
	_, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := svc.UserStore(tr, ct, user)
		if err != nil {
			return nil, err
		}
		return nil, f(store, tr)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSaveAndLoadRecord(t *testing.T) {
	db, svc, ct := newEnv(t)
	withUser(t, db, svc, ct, 1, func(store *core.Store, tr *fdb.Transaction) error {
		_, err := svc.SaveRecord(store, "Note", Record{
			Zone: "default", Name: "n1",
			Fields: map[string]interface{}{"title": "shopping", "body": "milk"},
		})
		return err
	})
	withUser(t, db, svc, ct, 1, func(store *core.Store, tr *fdb.Transaction) error {
		rec, err := svc.LoadRecord(store, "Note", "default", "n1")
		if err != nil {
			return err
		}
		if rec == nil {
			t.Fatal("record missing")
		}
		if v, _ := rec.Message.Get("title"); v.(string) != "shopping" {
			t.Fatalf("title: %v", v)
		}
		return nil
	})
}

func TestTenantIsolation(t *testing.T) {
	db, svc, ct := newEnv(t)
	for user := int64(1); user <= 3; user++ {
		user := user
		withUser(t, db, svc, ct, user, func(store *core.Store, tr *fdb.Transaction) error {
			_, err := svc.SaveRecord(store, "Note", Record{
				Zone: "default", Name: "n1",
				Fields: map[string]interface{}{"title": fmt.Sprintf("user%d", user)},
			})
			return err
		})
	}
	// Each user sees only their own record store.
	for user := int64(1); user <= 3; user++ {
		user := user
		withUser(t, db, svc, ct, user, func(store *core.Store, tr *fdb.Transaction) error {
			rec, err := svc.LoadRecord(store, "Note", "default", "n1")
			if err != nil {
				return err
			}
			if v, _ := rec.Message.Get("title"); v.(string) != fmt.Sprintf("user%d", user) {
				t.Fatalf("tenant bleed: %v", v)
			}
			n, err := svc.ZoneRecordCount(store, "default")
			if err != nil {
				return err
			}
			if n != 1 {
				t.Fatalf("user %d sees %d records", user, n)
			}
			return nil
		})
	}
}

func TestSyncZone(t *testing.T) {
	db, svc, ct := newEnv(t)
	// Three changes in separate transactions, across two zones.
	for i, zr := range []struct{ zone, name string }{
		{"work", "a"}, {"home", "x"}, {"work", "b"},
	} {
		zr := zr
		i := i
		withUser(t, db, svc, ct, 1, func(store *core.Store, tr *fdb.Transaction) error {
			_, err := svc.SaveRecord(store, "Note", Record{
				Zone: zr.zone, Name: zr.name,
				Fields: map[string]interface{}{"title": fmt.Sprintf("t%d", i)},
			})
			return err
		})
	}
	withUser(t, db, svc, ct, 1, func(store *core.Store, tr *fdb.Transaction) error {
		res, err := svc.SyncZone(store, "work", nil, 100)
		if err != nil {
			return err
		}
		if len(res.Changes) != 2 || res.More {
			t.Fatalf("work sync: %+v", res)
		}
		if res.Changes[0].RecordName != "a" || res.Changes[1].RecordName != "b" {
			t.Fatalf("sync order: %+v", res.Changes)
		}
		home, err := svc.SyncZone(store, "home", nil, 100)
		if err != nil {
			return err
		}
		if len(home.Changes) != 1 || home.Changes[0].RecordName != "x" {
			t.Fatalf("home sync: %+v", home.Changes)
		}
		return nil
	})
}

func TestSyncContinuationAndUpdates(t *testing.T) {
	db, svc, ct := newEnv(t)
	for i := 0; i < 5; i++ {
		i := i
		withUser(t, db, svc, ct, 1, func(store *core.Store, tr *fdb.Transaction) error {
			_, err := svc.SaveRecord(store, "Note", Record{
				Zone: "z", Name: fmt.Sprintf("n%d", i),
				Fields: map[string]interface{}{"title": "t"},
			})
			return err
		})
	}
	// Page through with limit 2; the device catches up incrementally.
	var cont []byte
	var seen []string
	for {
		var res *SyncResult
		withUser(t, db, svc, ct, 1, func(store *core.Store, tr *fdb.Transaction) error {
			var err error
			res, err = svc.SyncZone(store, "z", cont, 2)
			return err
		})
		for _, c := range res.Changes {
			seen = append(seen, c.RecordName)
		}
		cont = res.Continuation
		if !res.More {
			break
		}
	}
	if fmt.Sprint(seen) != "[n0 n1 n2 n3 n4]" {
		t.Fatalf("paged sync: %v", seen)
	}
	// Re-touching a record moves it to the end of the feed.
	withUser(t, db, svc, ct, 1, func(store *core.Store, tr *fdb.Transaction) error {
		_, err := svc.SaveRecord(store, "Note", Record{
			Zone: "z", Name: "n1", Fields: map[string]interface{}{"title": "updated"},
		})
		return err
	})
	withUser(t, db, svc, ct, 1, func(store *core.Store, tr *fdb.Transaction) error {
		res, err := svc.SyncZone(store, "z", nil, 100)
		if err != nil {
			return err
		}
		if len(res.Changes) != 5 {
			t.Fatalf("changes after update: %d", len(res.Changes))
		}
		if res.Changes[4].RecordName != "n1" {
			t.Fatalf("updated record not last: %+v", res.Changes)
		}
		// A device holding the old continuation sees just the update.
		inc, err := svc.SyncZone(store, "z", cont, 100)
		if err != nil {
			return err
		}
		if len(inc.Changes) != 1 || inc.Changes[0].RecordName != "n1" {
			t.Fatalf("incremental sync: %+v", inc.Changes)
		}
		return nil
	})
}

// TestLegacyUpdateCounterMigration reproduces the §8.1 function-key-expression
// migration: records written with the legacy per-zone update counter map to
// (0, counter) and sort before every new-method (incarnation, version) entry.
func TestLegacyUpdateCounterMigration(t *testing.T) {
	db, svc, ct := newEnv(t)
	// Two legacy writes, then two new-method writes.
	for i := 0; i < 2; i++ {
		i := i
		withUser(t, db, svc, ct, 1, func(store *core.Store, tr *fdb.Transaction) error {
			_, err := svc.SaveRecordLegacy(store, tr, "Note", Record{
				Zone: "z", Name: fmt.Sprintf("legacy%d", i),
				Fields: map[string]interface{}{"title": "old"},
			})
			return err
		})
	}
	for i := 0; i < 2; i++ {
		i := i
		withUser(t, db, svc, ct, 1, func(store *core.Store, tr *fdb.Transaction) error {
			_, err := svc.SaveRecord(store, "Note", Record{
				Zone: "z", Name: fmt.Sprintf("new%d", i),
				Fields: map[string]interface{}{"title": "new"},
			})
			return err
		})
	}
	withUser(t, db, svc, ct, 1, func(store *core.Store, tr *fdb.Transaction) error {
		res, err := svc.SyncZone(store, "z", nil, 100)
		if err != nil {
			return err
		}
		names := make([]string, len(res.Changes))
		for i, c := range res.Changes {
			names[i] = c.RecordName
		}
		if fmt.Sprint(names) != "[legacy0 legacy1 new0 new1]" {
			t.Fatalf("migration order: %v", names)
		}
		// Legacy entries carry incarnation 0 and counter positions 1, 2.
		if res.Changes[0].Incarnation != 0 || res.Changes[0].Version[1].(int64) != 1 {
			t.Fatalf("legacy change: %+v", res.Changes[0])
		}
		return nil
	})
}

// TestMoveUserPreservesSyncOrder reproduces the incarnation mechanism: after
// moving a user to another cluster, new updates sort after pre-move updates
// even though the clusters' commit versions are uncorrelated.
func TestMoveUserPreservesSyncOrder(t *testing.T) {
	src, svc, ct := newEnv(t)
	// Advance the destination cluster's versions far ahead... actually the
	// interesting case is the destination having *smaller* versions, so
	// fresh clusters (starting at version 1) exercise exactly that.
	dst := fdb.Open(nil)

	for i := 0; i < 3; i++ {
		i := i
		withUser(t, src, svc, ct, 7, func(store *core.Store, tr *fdb.Transaction) error {
			_, err := svc.SaveRecord(store, "Note", Record{
				Zone: "z", Name: fmt.Sprintf("pre%d", i),
				Fields: map[string]interface{}{"title": "before move"},
			})
			return err
		})
	}
	if err := svc.MoveUser(context.Background(), src, dst, ct, 7); err != nil {
		t.Fatal(err)
	}
	// Post-move writes land on the destination cluster, whose commit
	// versions are smaller than the source's were.
	for i := 0; i < 2; i++ {
		i := i
		withUser(t, dst, svc, ct, 7, func(store *core.Store, tr *fdb.Transaction) error {
			if Incarnation(store) != 1 {
				t.Fatalf("incarnation after move: %d", Incarnation(store))
			}
			_, err := svc.SaveRecord(store, "Note", Record{
				Zone: "z", Name: fmt.Sprintf("post%d", i),
				Fields: map[string]interface{}{"title": "after move"},
			})
			return err
		})
	}
	withUser(t, dst, svc, ct, 7, func(store *core.Store, tr *fdb.Transaction) error {
		res, err := svc.SyncZone(store, "z", nil, 100)
		if err != nil {
			return err
		}
		names := make([]string, len(res.Changes))
		for i, c := range res.Changes {
			names[i] = c.RecordName
		}
		if fmt.Sprint(names) != "[pre0 pre1 pre2 post0 post1]" {
			t.Fatalf("cross-move sync order: %v", names)
		}
		if res.Changes[2].Incarnation != 0 || res.Changes[3].Incarnation != 1 {
			t.Fatalf("incarnations: %+v", res.Changes)
		}
		return nil
	})
	// The source no longer holds the user's data.
	if src.Size() != 0 {
		// Directory-layer metadata may remain; the store range must be gone.
		_, err := src.ReadTransact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
			store, err := svc.UserStore(tr, ct, 7)
			if err != nil {
				return nil, err
			}
			rec, err := svc.LoadRecord(store, "Note", "z", "pre0")
			if err != nil {
				return nil, err
			}
			if rec != nil {
				t.Fatal("record remains on source after move")
			}
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestQuotaIndex(t *testing.T) {
	db, svc, ct := newEnv(t)
	withUser(t, db, svc, ct, 1, func(store *core.Store, tr *fdb.Transaction) error {
		for i := 0; i < 3; i++ {
			if _, err := svc.SaveRecord(store, "Note", Record{
				Zone: "z", Name: fmt.Sprintf("n%d", i),
				Fields: map[string]interface{}{"title": "t", "body": "0123456789"},
			}); err != nil {
				return err
			}
		}
		_, err := svc.SaveRecord(store, "Folder", Record{
			Zone: "z", Name: "f", Fields: map[string]interface{}{"label": "all"},
		})
		return err
	})
	withUser(t, db, svc, ct, 1, func(store *core.Store, tr *fdb.Transaction) error {
		noteBytes, err := svc.QuotaUsage(store, "Note")
		if err != nil {
			return err
		}
		folderBytes, err := svc.QuotaUsage(store, "Folder")
		if err != nil {
			return err
		}
		if noteBytes <= folderBytes || folderBytes <= 0 {
			t.Fatalf("quota: notes=%d folders=%d", noteBytes, folderBytes)
		}
		return nil
	})
}

func TestZoneConcurrency(t *testing.T) {
	// With the Record Layer, concurrent updates to *different* records in
	// the same zone commit without conflicts (Table 1: record-level
	// concurrency); with the legacy update counter they serialize.
	db, svc, ct := newEnv(t)
	withUser(t, db, svc, ct, 1, func(store *core.Store, tr *fdb.Transaction) error {
		_, err := svc.SaveRecord(store, "Note", Record{Zone: "z", Name: "seed",
			Fields: map[string]interface{}{"title": "s"}})
		return err
	})

	// New method: two interleaved transactions to different records commit.
	t1 := db.CreateTransaction()
	t2 := db.CreateTransaction()
	s1, err := svc.UserStore(t1, ct, 1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := svc.UserStore(t2, ct, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SaveRecord(s1, "Note", Record{Zone: "z", Name: "r1",
		Fields: map[string]interface{}{"title": "a"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SaveRecord(s2, "Note", Record{Zone: "z", Name: "r2",
		Fields: map[string]interface{}{"title": "b"}}); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatalf("record-level concurrency should not conflict: %v", err)
	}

	// Legacy method: the shared update counter forces a conflict.
	t3 := db.CreateTransaction()
	t4 := db.CreateTransaction()
	s3, err := svc.UserStore(t3, ct, 1)
	if err != nil {
		t.Fatal(err)
	}
	s4, err := svc.UserStore(t4, ct, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SaveRecordLegacy(s3, t3, "Note", Record{Zone: "z", Name: "l1",
		Fields: map[string]interface{}{"title": "a"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SaveRecordLegacy(s4, t4, "Note", Record{Zone: "z", Name: "l2",
		Fields: map[string]interface{}{"title": "b"}}); err != nil {
		t.Fatal(err)
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t4.Commit(); !fdb.IsConflict(err) {
		t.Fatalf("legacy zone counter should conflict: %v", err)
	}
}

func TestUserIndexIsTransactional(t *testing.T) {
	db, svc, ct := newEnv(t)
	withUser(t, db, svc, ct, 1, func(store *core.Store, tr *fdb.Transaction) error {
		if _, err := svc.SaveRecord(store, "Note", Record{Zone: "z", Name: "n",
			Fields: map[string]interface{}{"title": "findme"}}); err != nil {
			return err
		}
		// Same transaction: the user-defined index already reflects the
		// write (Table 1: transactional index consistency vs Solr's
		// eventual consistency).
		entries := scanNoteTitle(t, store, "findme")
		if len(entries) != 1 {
			t.Fatalf("index not transactional: %d entries", len(entries))
		}
		return nil
	})
}

func scanNoteTitle(t testing.TB, store *core.Store, title string) []string {
	t.Helper()
	c, err := store.ScanIndex("note_by_title", indexRangeFor(title), indexScanOpts())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for {
		r, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !r.OK {
			break
		}
		names = append(names, fmt.Sprint(r.Value.PrimaryKey))
	}
	return names
}
