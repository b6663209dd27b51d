package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/metadata"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// modelSchema is a one-type schema at version 1 (index by_name) or 2 (adds
// by_score, so opening a version-1 store with it runs the upgrade path).
func modelSchema(version int) *metadata.MetaData {
	b := metadata.NewBuilder(version).
		AddRecordType(userDesc(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		AddIndex(&metadata.Index{Name: "by_name", Type: metadata.IndexValue,
			Expression: keyexpr.Field("name")}, "User")
	if version >= 2 {
		b.AddIndex(&metadata.Index{Name: "by_score", Type: metadata.IndexValue,
			Expression: keyexpr.Field("score"), AddedVersion: 2}, "User")
	}
	return b.MustBuild()
}

// openOutcome is what one open observed: the error, or the header and the
// state of every index either schema version declares.
type openOutcome struct {
	err    string
	header Header
	states [2]metadata.IndexState
}

func outcomeOf(s *Store, err error) openOutcome {
	if err != nil {
		return openOutcome{err: err.Error()}
	}
	return openOutcome{header: s.Header(),
		states: [2]metadata.IndexState{s.IndexState("by_name"), s.IndexState("by_score")}}
}

// runStateModel drives two store-state caches — two providers' — over one
// database with a seeded mix of opens and store-state changes: index state
// marks, schema upgrades (inline builds and disabled indexes), user
// versions, deletes and re-creates. Every checking open through a cache is
// compared with an uncached open at the same read version; the first
// difference is returned. With skipBump, index states are written without
// bumping the metadata version — a broken writer the comparison must catch.
func runStateModel(t *testing.T, seed int64, steps int, skipBump bool) string {
	t.Helper()
	db := fdb.Open(nil)
	caches := []*StoreStateCache{NewStoreStateCache(), NewStoreStateCache()}
	spaces := []subspace.Subspace{
		subspace.FromTuple(tuple.Tuple{"model", int64(1)}),
		subspace.FromTuple(tuple.Tuple{"model", int64(2)}),
	}
	schemas := []*metadata.MetaData{modelSchema(1), modelSchema(2)}
	names := []string{"by_name", "by_score"}
	states := []metadata.IndexState{metadata.StateWriteOnly, metadata.StateReadable, metadata.StateDisabled}
	cfg := Config{InlineBuildLimit: 2} // bigger stores upgrade to a disabled index
	rng := rand.New(rand.NewSource(seed))
	write := func(f func(tr *fdb.Transaction, opts OpenOptions, sp subspace.Subspace, md *metadata.MetaData) error) {
		opts := OpenOptions{Config: cfg, StateCache: caches[rng.Intn(2)], CreateIfMissing: true}
		sp, md := spaces[rng.Intn(2)], schemas[1]
		if rng.Intn(3) == 0 {
			md = schemas[0]
		}
		_, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
			return nil, f(tr, opts, sp, md)
		})
		if err != nil {
			var stale *ErrStaleMetaData
			if !errors.As(err, &stale) {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
	withOpen := func(f func(s *Store) error) func(*fdb.Transaction, OpenOptions, subspace.Subspace, *metadata.MetaData) error {
		return func(tr *fdb.Transaction, opts OpenOptions, sp subspace.Subspace, md *metadata.MetaData) error {
			s, err := Open(tr, md, sp, opts)
			if err != nil {
				return err
			}
			return f(s)
		}
	}
	var past []int64 // read versions of earlier steps
	for step := 0; step < steps; step++ {
		past = append(past, db.ReadVersion())
		switch op := rng.Intn(100); {
		case op < 45: // check an open through a cache against an uncached one
			cache, sp, md := caches[rng.Intn(2)], spaces[rng.Intn(2)], schemas[rng.Intn(2)]
			tr := db.CreateTransaction()
			if rng.Intn(4) == 0 {
				// A lagging transaction: it sees an older metadata
				// version than the cache may hold.
				tr.SetReadVersion(past[len(past)-1-rng.Intn(min(len(past), 10))])
			}
			got := outcomeOf(Open(tr, md, sp, OpenOptions{Config: cfg, StateCache: cache}))
			rv, err := tr.GetReadVersion()
			if err != nil {
				t.Fatal(err)
			}
			ref := db.CreateTransaction()
			ref.SetReadVersion(rv)
			want := outcomeOf(Open(ref, md, sp, OpenOptions{Config: cfg}))
			if got != want {
				return fmt.Sprintf("seed %d step %d: cached open %+v, uncached open %+v", seed, step, got, want)
			}
		case op < 65: // change one index's state
			name, st := names[rng.Intn(2)], states[rng.Intn(3)]
			write(withOpen(func(s *Store) error {
				if !skipBump {
					return s.setIndexState(name, st)
				}
				if st == metadata.StateReadable {
					return s.tr.Clear(s.stateKey(name))
				}
				return s.tr.Set(s.stateKey(name), tuple.Tuple{int64(st)}.Pack())
			}))
		case op < 75:
			v := rng.Intn(5)
			write(withOpen(func(s *Store) error { return s.SetUserVersion(v) }))
		case op < 82:
			write(func(tr *fdb.Transaction, _ OpenOptions, sp subspace.Subspace, _ *metadata.MetaData) error {
				return DeleteStore(tr, sp)
			})
		default: // create (or re-create) and save; a version-2 open upgrades
			id := int64(rng.Intn(6))
			write(withOpen(func(s *Store) error {
				_, err := s.SaveRecord(mkUser(id, fmt.Sprintf("u%d", id), id))
				return err
			}))
		}
	}
	for i, c := range caches {
		st := c.Stats()
		if st.Hits == 0 || st.Invalidations == 0 {
			t.Fatalf("seed %d: cache %d never exercised: %+v", seed, i, st)
		}
		t.Logf("seed %d cache %d: %+v", seed, i, st)
	}
	return ""
}

// TestStoreStateCacheModel: opens served by either of two caches always see
// exactly what an uncached open at the same read version sees, across every
// kind of store-state change.
func TestStoreStateCacheModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		if diff := runStateModel(t, seed, 400, false); diff != "" {
			t.Fatal(diff)
		}
	}
}

// TestStoreStateCacheModelCatchesMissingBump is the model test's negative
// control: an index-state writer that skips the metadata-version bump leaves
// other transactions' cache entries looking current, and the model must
// notice the stale state they serve.
func TestStoreStateCacheModelCatchesMissingBump(t *testing.T) {
	diff := runStateModel(t, 1, 400, true)
	if diff == "" {
		t.Fatal("a state writer that skips the bump went unnoticed")
	}
	t.Log(diff)
}

// TestStoreStateCacheBumpedTransactionBypasses: once a transaction has
// changed some store's state, its opens neither read from nor fill the
// cache — what it would see is not what the metadata version vouches for.
func TestStoreStateCacheBumpedTransactionBypasses(t *testing.T) {
	db, md, sp := newStoreEnv(t)
	other := subspace.FromTuple(tuple.Tuple{"tenant", int64(2)})
	cache := NewStoreStateCache()
	saveUsers(t, db, md, sp, mkUser(1, "a", 1))
	saveUsers(t, db, md, other, mkUser(1, "a", 1))
	_, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := Open(tr, md, sp, OpenOptions{StateCache: cache})
		if err != nil {
			return nil, err
		}
		if err := s.MarkIndexWriteOnly("user_by_name"); err != nil {
			return nil, err
		}
		if _, err := tr.MetadataVersion(); !fdb.IsAccessedUnreadable(err) {
			t.Errorf("metadata version after a bump: err = %v, want accessed_unreadable", err)
		}
		s, err = Open(tr, md, sp, OpenOptions{StateCache: cache})
		if err != nil {
			return nil, err
		}
		if st := s.IndexState("user_by_name"); st != metadata.StateWriteOnly {
			t.Errorf("reopen in the bumping transaction sees %v, want its own write", st)
		}
		_, err = Open(tr, md, other, OpenOptions{StateCache: cache})
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st != (StoreStateCacheStats{Misses: 1, Size: 1}) {
		t.Fatalf("stats %+v, want one miss filled before the bump and nothing after", st)
	}
}

// TestStoreStateCacheConcurrentOpens: one cache shared by goroutines that
// open stores while another changes index states; every open still matches
// an uncached open at its read version. Run under -race.
func TestStoreStateCacheConcurrentOpens(t *testing.T) {
	db := fdb.Open(nil)
	md := modelSchema(2)
	cache := NewStoreStateCache()
	spaces := make([]subspace.Subspace, 4)
	for i := range spaces {
		spaces[i] = subspace.FromTuple(tuple.Tuple{"concurrent", int64(i)})
		saveUsers(t, db, md, spaces[i], mkUser(1, "a", 1))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := spaces[(g+i)%len(spaces)]
				tr := db.CreateTransaction()
				got := outcomeOf(Open(tr, md, sp, OpenOptions{StateCache: cache}))
				rv, err := tr.GetReadVersion()
				if err != nil {
					t.Error(err)
					return
				}
				ref := db.CreateTransaction()
				ref.SetReadVersion(rv)
				if want := outcomeOf(Open(ref, md, sp, OpenOptions{})); got != want {
					t.Errorf("cached open %+v, uncached open %+v", got, want)
					return
				}
			}
		}(g)
	}
	states := []metadata.IndexState{metadata.StateWriteOnly, metadata.StateDisabled, metadata.StateReadable}
	for i := 0; i < 30; i++ {
		withStore(t, db, md, spaces[i%len(spaces)], func(s *Store) error {
			return s.setIndexState("by_score", states[i%len(states)])
		})
	}
	wg.Wait()
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatalf("no open was served from the cache: %+v", st)
	}
}
