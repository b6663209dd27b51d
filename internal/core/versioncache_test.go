package core

import (
	"context"
	"testing"
	"time"

	"recordlayer/internal/fdb"
)

func TestVersionCacheApplySavesGRV(t *testing.T) {
	db := fdb.Open(nil)
	_, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		return nil, tr.Set([]byte("k"), []byte("v"))
	})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewVersionCache(nil)

	// First read: cache empty, real GRV happens, version noted.
	tr := db.CreateTransaction()
	if cache.Apply(tr, time.Minute) {
		t.Fatal("empty cache applied")
	}
	rv, err := tr.GetReadVersion()
	if err != nil {
		t.Fatal(err)
	}
	cache.NoteReadVersion(rv)
	tr.Cancel()

	// Second read: cache applies, no new GRV call.
	before := db.Metrics().GRVCalls.Load()
	tr2 := db.CreateTransaction()
	if !cache.Apply(tr2, time.Minute) {
		t.Fatal("fresh cache not applied")
	}
	if _, err := tr2.Get([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if db.Metrics().GRVCalls.Load() != before {
		t.Fatal("cached transaction still performed a GRV")
	}
	tr2.Cancel()
}

func TestVersionCacheStaleness(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	cache := NewVersionCache(clock)
	cache.NoteReadVersion(5)

	db := fdb.Open(nil)
	tr := db.CreateTransaction()
	if !cache.Apply(tr, 10*time.Second) {
		t.Fatal("fresh version rejected")
	}
	now = now.Add(11 * time.Second)
	tr2 := db.CreateTransaction()
	if cache.Apply(tr2, 10*time.Second) {
		t.Fatal("stale version applied")
	}
}

func TestVersionCacheNeverServesBelowObserved(t *testing.T) {
	cache := NewVersionCache(nil)
	cache.NoteReadVersion(5)
	// The client observes a later commit: the cached 5 is now unusable (§4:
	// "no smaller than the version previously observed by the client").
	cache.NoteCommit(9)
	db := fdb.Open(nil)
	tr := db.CreateTransaction()
	if cache.Apply(tr, time.Hour) {
		t.Fatal("cache served a version older than an observed commit")
	}
	cache.NoteReadVersion(12)
	tr2 := db.CreateTransaction()
	if !cache.Apply(tr2, time.Hour) {
		t.Fatal("newer version rejected")
	}
}
