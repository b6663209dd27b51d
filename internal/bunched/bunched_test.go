package bunched

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"recordlayer/internal/fdb"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

func newMap(bunchSize int) (*fdb.Database, *Map) {
	db := fdb.Open(nil)
	return db, New(subspace.FromTuple(tuple.Tuple{"text"}), bunchSize)
}

func pk(n int) tuple.Tuple { return tuple.Tuple{int64(n)} }

func insert(t *testing.T, db *fdb.Database, m *Map, token string, n int, offsets ...int64) {
	t.Helper()
	_, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		return nil, m.Insert(tr, token, pk(n), offsets)
	})
	if err != nil {
		t.Fatalf("insert %s/%d: %v", token, n, err)
	}
}

func scan(t *testing.T, db *fdb.Database, m *Map, token string) []Entry {
	t.Helper()
	v, err := db.ReadTransact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		return m.ScanToken(tr, token)
	})
	if err != nil {
		t.Fatal(err)
	}
	es, _ := v.([]Entry)
	return es
}

func physicalPairs(t *testing.T, db *fdb.Database, m *Map) int {
	t.Helper()
	v, err := db.ReadTransact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := m.ComputeStats(tr)
		return s, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return v.(Stats).PhysicalPairs
}

func TestInsertAndGet(t *testing.T) {
	db, m := newMap(2)
	insert(t, db, m, "whale", 1, 3, 9)
	insert(t, db, m, "whale", 2, 5)
	insert(t, db, m, "ship", 1, 0)

	_, err := db.ReadTransact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		offs, ok, err := m.Get(tr, "whale", pk(1))
		if err != nil || !ok || len(offs) != 2 || offs[1] != 9 {
			t.Errorf("get whale/1: %v %v %v", offs, ok, err)
		}
		if _, ok, _ := m.Get(tr, "whale", pk(99)); ok {
			t.Error("phantom entry")
		}
		if _, ok, _ := m.Get(tr, "absent", pk(1)); ok {
			t.Error("phantom token")
		}
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBunchingReducesPhysicalPairs(t *testing.T) {
	db, m := newMap(20)
	for i := 0; i < 40; i++ {
		insert(t, db, m, "tok", i, int64(i))
	}
	entries := scan(t, db, m, "tok")
	if len(entries) != 40 {
		t.Fatalf("logical entries: %d", len(entries))
	}
	if got := physicalPairs(t, db, m); got > 4 {
		t.Fatalf("40 entries with bunch size 20 used %d physical pairs", got)
	}

	// Unbunched baseline: one pair per entry.
	db1, m1 := newMap(1)
	for i := 0; i < 40; i++ {
		insert(t, db1, m1, "tok", i, int64(i))
	}
	if got := physicalPairs(t, db1, m1); got != 40 {
		t.Fatalf("bunch size 1: %d physical pairs", got)
	}
}

func TestScanTokenOrdered(t *testing.T) {
	db, m := newMap(3)
	order := []int{5, 1, 9, 3, 7, 2, 8, 0, 6, 4}
	for _, n := range order {
		insert(t, db, m, "tok", n, int64(n))
	}
	entries := scan(t, db, m, "tok")
	if len(entries) != 10 {
		t.Fatalf("entries: %d", len(entries))
	}
	for i, e := range entries {
		if e.PK[0].(int64) != int64(i) {
			t.Fatalf("entry %d out of order: %v", i, e.PK)
		}
		if e.Offsets[0] != int64(i) {
			t.Fatalf("entry %d offsets wrong: %v", i, e.Offsets)
		}
	}
}

func TestUpsertReplacesOffsets(t *testing.T) {
	db, m := newMap(5)
	insert(t, db, m, "tok", 1, 1, 2)
	insert(t, db, m, "tok", 1, 7)
	entries := scan(t, db, m, "tok")
	if len(entries) != 1 || len(entries[0].Offsets) != 1 || entries[0].Offsets[0] != 7 {
		t.Fatalf("upsert: %+v", entries)
	}
}

func TestDeleteVariants(t *testing.T) {
	db, m := newMap(3)
	for i := 0; i < 6; i++ {
		insert(t, db, m, "tok", i, int64(i))
	}
	del := func(n int) bool {
		v, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
			return m.Delete(tr, "tok", pk(n))
		})
		if err != nil {
			t.Fatal(err)
		}
		return v.(bool)
	}
	// Delete a non-anchor entry, an anchor entry, and a lone entry.
	if !del(1) {
		t.Fatal("delete 1 failed")
	}
	if !del(0) { // likely an anchor (first of bunch)
		t.Fatal("delete 0 failed")
	}
	if del(0) {
		t.Fatal("double delete succeeded")
	}
	entries := scan(t, db, m, "tok")
	var got []int
	for _, e := range entries {
		got = append(got, int(e.PK[0].(int64)))
	}
	sort.Ints(got)
	want := []int{2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("after deletes: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after deletes: %v", got)
		}
	}
}

func TestScanPrefix(t *testing.T) {
	db, m := newMap(4)
	insert(t, db, m, "whale", 1, 0)
	insert(t, db, m, "whaling", 2, 1)
	insert(t, db, m, "wharf", 3, 2)
	insert(t, db, m, "ship", 4, 3)

	v, err := db.ReadTransact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		return m.ScanPrefix(tr, "whal")
	})
	if err != nil {
		t.Fatal(err)
	}
	tes := v.([]TokenEntries)
	if len(tes) != 2 || tes[0].Token != "whale" || tes[1].Token != "whaling" {
		t.Fatalf("prefix scan: %+v", tes)
	}
}

func TestCompact(t *testing.T) {
	db, m := newMap(10)
	// Insert descending to fragment bunches, then delete a few.
	for i := 50; i > 0; i-- {
		insert(t, db, m, "tok", i, int64(i))
	}
	for i := 1; i <= 50; i += 7 {
		_, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
			return m.Delete(tr, "tok", pk(i))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	before := physicalPairs(t, db, m)
	_, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		return nil, m.Compact(tr, "tok")
	})
	if err != nil {
		t.Fatal(err)
	}
	after := physicalPairs(t, db, m)
	if after > before {
		t.Fatalf("compaction grew the map: %d -> %d", before, after)
	}
	entries := scan(t, db, m, "tok")
	if len(entries) != 42 {
		t.Fatalf("entries after compaction: %d", len(entries))
	}
	// Ceil(42/10) = 5 bunches.
	if after != 5 {
		t.Fatalf("bunches after compaction: %d", after)
	}
}

// TestRandomizedAgainstModel drives random upserts and deletes across several
// tokens, verifying the logical contents after every batch.
func TestRandomizedAgainstModel(t *testing.T) {
	db, m := newMap(4)
	rng := rand.New(rand.NewSource(23))
	model := map[string]map[int][]int64{}
	tokens := []string{"alpha", "beta", "gamma"}

	for step := 0; step < 500; step++ {
		token := tokens[rng.Intn(len(tokens))]
		n := rng.Intn(30)
		if rng.Intn(4) == 0 {
			_, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
				return m.Delete(tr, token, pk(n))
			})
			if err != nil {
				t.Fatal(err)
			}
			if model[token] != nil {
				delete(model[token], n)
			}
		} else {
			offs := []int64{int64(step)}
			_, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
				return nil, m.Insert(tr, token, pk(n), offs)
			})
			if err != nil {
				t.Fatal(err)
			}
			if model[token] == nil {
				model[token] = map[int][]int64{}
			}
			model[token][n] = offs
		}

		if step%50 != 0 {
			continue
		}
		for _, tok := range tokens {
			entries := scan(t, db, m, tok)
			if len(entries) != len(model[tok]) {
				t.Fatalf("step %d token %s: %d entries, model %d", step, tok, len(entries), len(model[tok]))
			}
			for _, e := range entries {
				n := int(e.PK[0].(int64))
				want, ok := model[tok][n]
				if !ok {
					t.Fatalf("step %d: phantom entry %s/%d", step, tok, n)
				}
				if fmt.Sprint(e.Offsets) != fmt.Sprint(want) {
					t.Fatalf("step %d: offsets %v, want %v", step, e.Offsets, want)
				}
			}
		}
	}
}

// TestInsertIOBounds verifies Appendix B's claim: an insert reads at most
// two pairs and writes at most two.
func TestInsertIOBounds(t *testing.T) {
	db, m := newMap(3)
	for i := 0; i < 30; i++ {
		tr := db.CreateTransaction()
		if err := m.Insert(tr, "tok", pk(i*7%30), []int64{int64(i)}); err != nil {
			t.Fatal(err)
		}
		st := tr.Stats()
		if st.KeysRead > 2 {
			t.Fatalf("insert %d read %d keys", i, st.KeysRead)
		}
		if err := tr.Commit(); err != nil {
			t.Fatal(err)
		}
		if st := tr.Stats(); st.KeysWritten > 2 {
			t.Fatalf("insert %d wrote %d keys", i, st.KeysWritten)
		}
	}
}
