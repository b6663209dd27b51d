package rankedset

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"recordlayer/internal/fdb"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// dumpAll returns every pair in the database as "hexkey=hexval" lines.
func dumpAll(t *testing.T, db *fdb.Database) []string {
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

type setOp struct {
	insert bool
	key    string
}

// runSerial applies the ops one at a time inside a single transaction.
func runSerial(t *testing.T, db *fdb.Database, rs *RankedSet, ops []setOp) []bool {
	t.Helper()
	changed := make([]bool, len(ops))
	_, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		if err := rs.Init(tr); err != nil {
			return nil, err
		}
		for i, o := range ops {
			var err error
			if o.insert {
				changed[i], err = rs.Insert(tr, []byte(o.key))
			} else {
				changed[i], err = rs.Delete(tr, []byte(o.key))
			}
			if err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return changed
}

// runBatched issues every op before applying any, inside a single
// transaction — the cross-record pipelining shape.
func runBatched(t *testing.T, db *fdb.Database, rs *RankedSet, ops []setOp) []bool {
	t.Helper()
	changed := make([]bool, len(ops))
	_, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		if err := rs.Init(tr); err != nil {
			return nil, err
		}
		a := rs.Async(tr)
		pending := make([]*Op, len(ops))
		for i, o := range ops {
			var err error
			if o.insert {
				pending[i], err = a.IssueInsert([]byte(o.key))
			} else {
				pending[i], err = a.IssueDelete([]byte(o.key))
			}
			if err != nil {
				return nil, err
			}
		}
		for i, p := range pending {
			var err error
			changed[i], err = p.Apply()
			if err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return changed
}

func compareRuns(t *testing.T, cfg *Config, seed []string, ops []setOp) {
	t.Helper()
	mk := func() (*fdb.Database, *RankedSet) {
		db := fdb.Open(nil)
		rs := New(subspace.FromTuple(tuple.Tuple{"rank"}), cfg)
		_, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
			if err := rs.Init(tr); err != nil {
				return nil, err
			}
			for _, k := range seed {
				if _, err := rs.Insert(tr, []byte(k)); err != nil {
					return nil, err
				}
			}
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return db, rs
	}
	dbS, rsS := mk()
	dbB, rsB := mk()
	chS := runSerial(t, dbS, rsS, ops)
	chB := runBatched(t, dbB, rsB, ops)
	for i := range ops {
		if chS[i] != chB[i] {
			t.Fatalf("op %d (%+v): serial changed=%v batched changed=%v", i, ops[i], chS[i], chB[i])
		}
	}
	s, b := dumpAll(t, dbS), dumpAll(t, dbB)
	if len(s) != len(b) {
		t.Fatalf("keyspace size differs: serial %d batched %d", len(s), len(b))
	}
	for i := range s {
		if s[i] != b[i] {
			t.Fatalf("keyspace differs at %d:\nserial  %s\nbatched %s", i, s[i], b[i])
		}
	}
}

// TestAsyncBatchMatchesSerial drives randomized mixed insert/delete batches
// through the issue-all-then-apply-all path and the serial path, requiring
// byte-identical keyspaces — floors resolved through the write log must equal
// floors read under read-your-writes.
func TestAsyncBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 40; round++ {
		var seed []string
		for i := 0; i < rng.Intn(12); i++ {
			seed = append(seed, fmt.Sprintf("k%02d", rng.Intn(20)))
		}
		var ops []setOp
		for i := 0; i < 3+rng.Intn(18); i++ {
			ops = append(ops, setOp{insert: rng.Intn(3) > 0, key: fmt.Sprintf("k%02d", rng.Intn(20))})
		}
		compareRuns(t, nil, seed, ops)
	}
}

// TestAsyncOverlayFloorCases pins the adversarial interleavings the overlay
// must resolve: a later op clearing an earlier op's raw floor (reissue path),
// an op's floor created by an earlier op in the same batch (overlay
// candidate), and repeated insert/delete of the same member.
func TestAsyncOverlayFloorCases(t *testing.T) {
	// Promote c and f to level 1+ so deletes of promoted keys rewrite fingers.
	cfg := &Config{
		Levels: 3,
		LevelFunc: func(key []byte, level int) bool {
			k := string(key)
			return k == "c" || k == "f"
		},
	}
	cases := [][]setOp{
		// Delete the promoted floor, then insert above it: the insert's raw
		// floor (c) is gone by apply time.
		{{false, "c"}, {true, "d"}},
		// Insert a promoted key, then another whose floor it becomes: the
		// batched second op's floor exists only in the write log.
		{{true, "f"}, {true, "g"}},
		// Churn one member.
		{{true, "x"}, {false, "x"}, {true, "x"}},
		// Delete then reinsert a promoted key, then insert above it.
		{{false, "f"}, {true, "f"}, {true, "g"}},
		// Duplicate inserts and deletes of absent members.
		{{true, "b"}, {true, "b"}, {false, "zz"}, {false, "b"}},
	}
	seed := []string{"a", "b", "c", "e", "f", "k"}
	for i, ops := range cases {
		t.Run(fmt.Sprintf("case%d", i), func(t *testing.T) {
			compareRuns(t, cfg, seed, ops)
		})
	}
}

// TestAsyncBatchSharesWindow asserts the point of the pipeline on the virtual
// clock: N batched inserts resolve their probe reads in ~1 window, while the
// serial loop pays at least one window per insert.
func TestAsyncBatchSharesWindow(t *testing.T) {
	const window = time.Millisecond
	const n = 10
	simwait := func(batched bool) int64 {
		db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{PerRead: window, Virtual: true}})
		rs := New(subspace.FromTuple(tuple.Tuple{"rank"}), nil)
		var waited int64
		_, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
			if err := rs.Init(tr); err != nil {
				return nil, err
			}
			ops := make([]*Op, 0, n)
			a := rs.Async(tr)
			for i := 0; i < n; i++ {
				key := []byte(fmt.Sprintf("w%02d", i))
				if batched {
					op, err := a.IssueInsert(key)
					if err != nil {
						return nil, err
					}
					ops = append(ops, op)
					continue
				}
				if _, err := rs.Insert(tr, key); err != nil {
					return nil, err
				}
			}
			for _, op := range ops {
				if _, err := op.Apply(); err != nil {
					return nil, err
				}
			}
			waited = tr.Stats().SimWaitNanos
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return waited
	}
	serial, batched := simwait(false), simwait(true)
	// Serial: Init (1 window) + one window per insert's probe batch, plus any
	// finger-split sums. Batched: Init + ~1 shared window for all probes.
	if minSerial := int64(n) * int64(window); serial < minSerial {
		t.Fatalf("serial simwait %v, expected >= %v", serial, minSerial)
	}
	if batched >= serial/3 {
		t.Fatalf("batched simwait %v not well below serial %v", time.Duration(batched), time.Duration(serial))
	}
}
