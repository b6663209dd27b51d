package directory

import (
	"context"
	"sync"
	"testing"

	"recordlayer/internal/fdb"
	"recordlayer/internal/subspace"
)

func newLayer() (*fdb.Database, *Layer) {
	db := fdb.Open(nil)
	l := NewLayerAt(subspace.FromBytes([]byte{0xFE}), subspace.FromBytes(nil), 7)
	return db, l
}

func TestAllocateUniqueSequential(t *testing.T) {
	db, l := newLayer()
	seen := map[int64]bool{}
	for i := 0; i < 200; i++ {
		v, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
			return l.Allocate(tr)
		})
		if err != nil {
			t.Fatal(err)
		}
		id := v.(int64)
		if seen[id] {
			t.Fatalf("duplicate allocation %d", id)
		}
		seen[id] = true
	}
}

func TestAllocateKeepsValuesSmall(t *testing.T) {
	db, l := newLayer()
	var maxID int64
	for i := 0; i < 100; i++ {
		v, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
			return l.Allocate(tr)
		})
		if err != nil {
			t.Fatal(err)
		}
		if id := v.(int64); id > maxID {
			maxID = id
		}
	}
	// 100 allocations with 64-entry windows should stay well under 1024.
	if maxID >= 1024 {
		t.Fatalf("allocated values grew too fast: max %d", maxID)
	}
}

func TestAllocateConcurrentUnique(t *testing.T) {
	db, l := newLayer()
	var mu sync.Mutex
	seen := map[int64]int{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				v, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
					return l.Allocate(tr)
				})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				seen[v.(int64)]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != 200 {
		t.Fatalf("expected 200 unique allocations, got %d", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("id %d allocated %d times", id, n)
		}
	}
}

func TestInternStable(t *testing.T) {
	db, l := newLayer()
	get := func(name string) int64 {
		v, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
			return l.Intern(tr, name)
		})
		if err != nil {
			t.Fatal(err)
		}
		return v.(int64)
	}
	a1 := get("com.example.application-with-a-long-name")
	b := get("another-app")
	a2 := get("com.example.application-with-a-long-name")
	if a1 != a2 {
		t.Fatalf("interning not stable: %d vs %d", a1, a2)
	}
	if a1 == b {
		t.Fatalf("distinct names share id %d", a1)
	}
}

func TestLookupNameReverse(t *testing.T) {
	db, l := newLayer()
	v, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		return l.Intern(tr, "my-app")
	})
	if err != nil {
		t.Fatal(err)
	}
	name, ok, err := resolveName(db, l, v.(int64))
	if err != nil || !ok || name != "my-app" {
		t.Fatalf("reverse lookup: %q %v %v", name, ok, err)
	}
}

func resolveName(db *fdb.Database, l *Layer, id int64) (string, bool, error) {
	var name string
	var ok bool
	_, err := db.ReadTransact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		var err error
		name, ok, err = l.LookupName(tr, id)
		return nil, err
	})
	return name, ok, err
}

func TestCreateOrOpenDisjoint(t *testing.T) {
	db, l := newLayer()
	v, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		s1, err := l.CreateOrOpen(tr, "users", "alice")
		if err != nil {
			return nil, err
		}
		s2, err := l.CreateOrOpen(tr, "users", "bob")
		if err != nil {
			return nil, err
		}
		return [2]subspace.Subspace{s1, s2}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ss := v.([2]subspace.Subspace)
	if ss[0].Contains(ss[1].Bytes()) || ss[1].Contains(ss[0].Bytes()) {
		t.Fatal("sibling directories overlap")
	}
	// Short prefixes: two interned components should pack into a few bytes.
	if len(ss[0].Bytes()) > 8 {
		t.Fatalf("directory prefix too long: %d bytes", len(ss[0].Bytes()))
	}
}

func TestOpenMissing(t *testing.T) {
	db, l := newLayer()
	_, err := db.ReadTransact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		_, ok, err := l.Open(tr, "does", "not", "exist")
		if err != nil {
			return nil, err
		}
		if ok {
			t.Error("open of missing path succeeded")
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestList(t *testing.T) {
	db, l := newLayer()
	_, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		for _, n := range []string{"b", "a", "c"} {
			if _, err := l.Intern(tr, n); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.ReadTransact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		names, err := l.List(tr)
		if err != nil {
			return nil, err
		}
		if len(names) != 3 || names[0] != "a" || names[2] != "c" {
			t.Errorf("list: %v", names)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
