package kvcursor

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/resource"
)

// opaque hides the inner cursor's Prefetcher, reproducing the pre-pipelining
// world where a composite parent could only pull a child one blocking Next at
// a time. A merge over opaque children is the serial baseline the pipelined
// merge must match byte for byte.
type opaque struct{ inner cursor.Cursor[fdb.KeyValue] }

func (o opaque) Next() (cursor.Result[fdb.KeyValue], error) { return o.inner.Next() }

// mergeSeed writes two key families sharing numeric suffixes: a<nnn> for
// multiples of two, b<nnn> for multiples of three. Union should emit every
// suffix divisible by 2 or 3; intersection every multiple of 6.
func mergeSeed(t *testing.T, db *fdb.Database, n int) {
	t.Helper()
	_, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				if err := tr.Set([]byte(fmt.Sprintf("a%03d", i)), []byte(fmt.Sprintf("av%d", i))); err != nil {
					return nil, err
				}
			}
			if i%3 == 0 {
				if err := tr.Set([]byte(fmt.Sprintf("b%03d", i)), []byte(fmt.Sprintf("bv%d", i))); err != nil {
					return nil, err
				}
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func mergeKeyOf(kv fdb.KeyValue) []byte { return kv.Key[1:] }

// mergeBuilders returns Union/Intersection child constructors over the two
// families. serial wraps each child in opaque so the merge cannot prefetch.
func mergeBuilders(tr *fdb.Transaction, opts Options, serial bool) []func([]byte) cursor.Cursor[fdb.KeyValue] {
	mk := func(fam string) func([]byte) cursor.Cursor[fdb.KeyValue] {
		return func(cont []byte) cursor.Cursor[fdb.KeyValue] {
			o := opts
			o.Continuation = cont
			c := New(tr, []byte(fam), []byte(fam+"\xff"), o)
			if serial {
				return opaque{c}
			}
			return c
		}
	}
	return []func([]byte) cursor.Cursor[fdb.KeyValue]{mk("a"), mk("b")}
}

// mergeRun is the complete observable behavior of one merge execution: every
// emitted row with its composite continuation, the halt, what the tenant was
// billed, and what the transaction read.
type mergeRun struct {
	steps  []string
	reason cursor.NoNextReason
	cont   []byte
	usage  resource.Usage
	stats  fdb.TxnStats
}

func runMerge(t *testing.T, db *fdb.Database, union, serial bool,
	opts Options, scanLimit int, cont []byte) mergeRun {
	t.Helper()
	var run mergeRun
	if scanLimit > 0 {
		opts.Limiter = cursor.NewLimiter(scanLimit, 0, time.Time{}, nil)
	}
	var meter *resource.Meter
	_, err := db.ReadTransact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		meter = resource.NewAccountant().Tenant("t")
		tr.SetMeter(meter)
		defer func() { run.stats = tr.Stats() }()
		builders := mergeBuilders(tr, opts, serial)
		var c cursor.Cursor[fdb.KeyValue]
		var err error
		if union {
			c, err = cursor.Union(cont, mergeKeyOf, builders...)
		} else {
			c, err = cursor.Intersection(cont, mergeKeyOf, builders...)
		}
		if err != nil {
			return nil, err
		}
		run = mergeRun{}
		for {
			r, err := c.Next()
			if err != nil {
				return nil, err
			}
			if !r.OK {
				run.reason, run.cont = r.Reason, r.Continuation
				break
			}
			run.steps = append(run.steps,
				fmt.Sprintf("%s|%s|%s", r.Value.Key, r.Value.Value, r.Continuation))
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	run.usage = meter.Snapshot()
	return run
}

func compareRuns(t *testing.T, label string, pipelined, serial mergeRun) {
	t.Helper()
	if len(pipelined.steps) != len(serial.steps) {
		t.Fatalf("%s: %d rows pipelined vs %d serial", label, len(pipelined.steps), len(serial.steps))
	}
	for i := range pipelined.steps {
		if pipelined.steps[i] != serial.steps[i] {
			t.Fatalf("%s row %d:\n pipelined %s\n serial    %s", label, i, pipelined.steps[i], serial.steps[i])
		}
	}
	if pipelined.reason != serial.reason {
		t.Fatalf("%s reason: %v vs %v", label, pipelined.reason, serial.reason)
	}
	if !bytes.Equal(pipelined.cont, serial.cont) {
		t.Fatalf("%s continuation: %q vs %q", label, pipelined.cont, serial.cont)
	}
	// Prefetch may read batches the merge never takes, so the two paths
	// need not read the same; each must bill exactly what it read.
	for _, r := range []struct {
		path string
		run  mergeRun
	}{{"pipelined", pipelined}, {"serial", serial}} {
		u, st := r.run.usage, r.run.stats
		if u.ReadRecords != int64(st.KeysRead) || u.ReadBytes != int64(st.BytesRead) {
			t.Fatalf("%s %s metering: billed %d rows/%d bytes, read %d/%d", label, r.path,
				u.ReadRecords, u.ReadBytes, st.KeysRead, st.BytesRead)
		}
	}
}

// TestMergePipelinedMatchesSerial drains Union and Intersection over kvcursor
// children with prefetching enabled and compares every row, continuation and
// halt against the same merge over opaque (non-prefetching) children, across
// batch shapes with and without intra-stream read-ahead. On both paths the
// tenant meter must equal the transaction's read counts.
func TestMergePipelinedMatchesSerial(t *testing.T) {
	db := fdb.Open(nil)
	mergeSeed(t, db, 30)
	configs := []struct {
		name string
		opts Options
	}{
		{"batch1-noRA", Options{BatchSize: 1, MaxBatchSize: 1, noReadAhead: true}},
		{"batch2-noRA", Options{BatchSize: 2, MaxBatchSize: 2, noReadAhead: true}},
		{"batch3-RA", Options{BatchSize: 3}},
		{"default", Options{}},
	}
	for _, union := range []bool{true, false} {
		kind := "intersection"
		want := 5 // multiples of 6 below 30
		if union {
			kind, want = "union", 20 // multiples of 2 or 3 below 30
		}
		for _, cfg := range configs {
			label := kind + "/" + cfg.name
			pipelined := runMerge(t, db, union, false, cfg.opts, 0, nil)
			serial := runMerge(t, db, union, true, cfg.opts, 0, nil)
			compareRuns(t, label, pipelined, serial)
			if len(pipelined.steps) != want || pipelined.reason != cursor.SourceExhausted {
				t.Fatalf("%s: %d rows (%v), want %d", label, len(pipelined.steps), pipelined.reason, want)
			}
		}
	}
}

// TestMergePipelinedHaltsMidPage forces a scan-limit halt inside a buffered
// batch, checks the pipelined halt and composite continuation are
// byte-identical to serial, then resumes both from the (shared) continuation
// and compares the remainder of the stream.
func TestMergePipelinedHaltsMidPage(t *testing.T) {
	db := fdb.Open(nil)
	mergeSeed(t, db, 30)
	opts := Options{BatchSize: 4, MaxBatchSize: 4}
	for _, union := range []bool{true, false} {
		kind := "intersection"
		if union {
			kind = "union"
		}
		pipelined := runMerge(t, db, union, false, opts, 3, nil)
		serial := runMerge(t, db, union, true, opts, 3, nil)
		compareRuns(t, kind+"/halt", pipelined, serial)
		if pipelined.reason != cursor.ScanLimitReached {
			t.Fatalf("%s: halt reason %v, want ScanLimitReached", kind, pipelined.reason)
		}
		if len(pipelined.cont) == 0 {
			t.Fatalf("%s: scan-limited merge must return a continuation", kind)
		}
		restP := runMerge(t, db, union, false, opts, 0, pipelined.cont)
		restS := runMerge(t, db, union, true, opts, 0, serial.cont)
		compareRuns(t, kind+"/resume", restP, restS)
		if restP.reason != cursor.SourceExhausted {
			t.Fatalf("%s: resume reason %v", kind, restP.reason)
		}
	}
}

// TestMergePipelinedPaging pages through the merges two rows at a time via
// fresh scan limiters, comparing each page and continuation hand-off between
// the pipelined and serial drivers.
func TestMergePipelinedPaging(t *testing.T) {
	db := fdb.Open(nil)
	mergeSeed(t, db, 30)
	opts := Options{BatchSize: 2, MaxBatchSize: 2, noReadAhead: true}
	for _, union := range []bool{true, false} {
		kind := "intersection"
		if union {
			kind = "union"
		}
		var contP, contS []byte
		for page := 0; page < 20; page++ {
			pipelined := runMerge(t, db, union, false, opts, 2, contP)
			serial := runMerge(t, db, union, true, opts, 2, contS)
			compareRuns(t, fmt.Sprintf("%s/page%d", kind, page), pipelined, serial)
			if pipelined.reason == cursor.SourceExhausted {
				break
			}
			contP, contS = pipelined.cont, serial.cont
			if page == 19 {
				t.Fatalf("%s: paging never exhausted", kind)
			}
		}
	}
}

// TestMergeStepSharesOneWindow seeds both families with identical suffixes so
// every merge step drains both children, then measures simulated wait with
// batch size 1: the pipelined merge issues both refills before awaiting
// either (~one window per step) while the serial baseline pays one window per
// child per step. The ISSUE criterion is >=1.5x; aligned two-way merges give
// ~2x.
func TestMergeStepSharesOneWindow(t *testing.T) {
	const (
		n      = 8
		window = time.Millisecond
	)
	for _, union := range []bool{true, false} {
		kind := "intersection"
		if union {
			kind = "union"
		}
		db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{PerRead: window, Virtual: true}})
		_, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
			for i := 0; i < n; i++ {
				if err := tr.Set([]byte(fmt.Sprintf("a%03d", i)), []byte("x")); err != nil {
					return nil, err
				}
				if err := tr.Set([]byte(fmt.Sprintf("b%03d", i)), []byte("x")); err != nil {
					return nil, err
				}
			}
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		wait := func(serial bool) int64 {
			var w int64
			_, err := db.ReadTransact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
				opts := Options{BatchSize: 1, MaxBatchSize: 1, noReadAhead: true}
				builders := mergeBuilders(tr, opts, serial)
				var c cursor.Cursor[fdb.KeyValue]
				var err error
				if union {
					c, err = cursor.Union(nil, mergeKeyOf, builders...)
				} else {
					c, err = cursor.Intersection(nil, mergeKeyOf, builders...)
				}
				if err != nil {
					return nil, err
				}
				before := tr.Stats().SimWaitNanos
				rows := 0
				for {
					r, err := c.Next()
					if err != nil {
						return nil, err
					}
					if !r.OK {
						break
					}
					rows++
				}
				if rows != n {
					t.Fatalf("%s drained %d rows, want %d", kind, rows, n)
				}
				w = tr.Stats().SimWaitNanos - before
				return nil, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
		serialWait := wait(true)
		pipelinedWait := wait(false)
		if pipelinedWait <= 0 {
			t.Fatalf("%s: pipelined merge recorded no simulated wait", kind)
		}
		if pipelinedWait*3 > serialWait*2 {
			t.Fatalf("%s: pipelined merge waited %v, not >=1.5x below serial %v",
				kind, time.Duration(pipelinedWait), time.Duration(serialWait))
		}
	}
}
