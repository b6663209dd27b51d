package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/message"
	"recordlayer/internal/obs"
	"recordlayer/internal/rankedset"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// TestRankReadSpans: each rank read operation records exactly one
// index.<name> span covering the whole skip-list descent — its boundaries are
// exact virtual-clock readings taken around the call, and the descent's
// per-level read windows all land inside that single span rather than
// producing one span per level. The descent reads each level in one range
// read (Rank overlaps its membership probe with it), so every operation spans
// exactly one window per level.
func TestRankReadSpans(t *testing.T) {
	const window = time.Millisecond
	db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{PerRead: window, Virtual: true}})
	md := testSchema(t)
	sp := subspace.FromTuple(tuple.Tuple{"t"})
	saveUsers(t, db, md, sp,
		mkUser(1, "a", 100), mkUser(2, "b", 200), mkUser(3, "c", 300), mkUser(4, "d", 400))

	trace := obs.NewTrace()
	_, err := db.ReadTransact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		tr.SetTrace(trace)
		s, err := Open(tr, md, sp, OpenOptions{})
		if err != nil {
			return nil, err
		}
		type op struct {
			attr string
			call func() error
		}
		ops := []op{
			{"op=rank", func() error {
				_, _, err := s.Rank("score_rank", tuple.Tuple{int64(300)}, tuple.Tuple{"User", int64(3)})
				return err
			}},
			{"op=rank_of_value", func() error {
				_, err := s.RankOfValue("score_rank", tuple.Tuple{int64(250)})
				return err
			}},
			{"op=by_rank", func() error {
				_, _, err := s.ByRank("score_rank", 2)
				return err
			}},
			{"op=scan_by_rank", func() error {
				_, err := s.ScanByRank("score_rank", 1, index.ScanOptions{})
				return err
			}},
		}
		for i, o := range ops {
			readsBefore := len(trace.Named(obs.SpanRead))
			t0 := tr.LatencyNow()
			if err := o.call(); err != nil {
				return nil, fmt.Errorf("%s: %v", o.attr, err)
			}
			t1 := tr.LatencyNow()
			spans := trace.Named(obs.SpanIndexPrefix + "score_rank")
			if len(spans) != i+1 {
				t.Fatalf("after %s: %d index spans, want %d (one per operation, not per level)",
					o.attr, len(spans), i+1)
			}
			sp := spans[i]
			if sp.Start != t0 || sp.End != t1 {
				t.Fatalf("%s span [%d,%d], want exact clock readings [%d,%d]",
					o.attr, sp.Start, sp.End, t0, t1)
			}
			if sp.End <= sp.Start {
				t.Fatalf("%s span has no duration: %+v", o.attr, sp)
			}
			if sp.Attr != o.attr {
				t.Fatalf("span attr %q, want %q", sp.Attr, o.attr)
			}
			if got, want := sp.End-sp.Start, int64(rankedset.DefaultLevels)*int64(window); got != want {
				t.Fatalf("%s spans %d windows, want one per level (%d)",
					o.attr, got/int64(window), rankedset.DefaultLevels)
			}
			// All of the descent's read windows belong to this one span.
			levelReads := trace.Named(obs.SpanRead)[readsBefore:]
			for _, r := range levelReads {
				if r.Start < sp.Start || r.End > sp.End {
					t.Fatalf("%s: read window [%d,%d] escapes index span [%d,%d]",
						o.attr, r.Start, r.End, sp.Start, sp.End)
				}
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIndexerBatchSpan: an online build with a trace attached records one
// indexer.batch span per batch transaction, carrying the batch limit and the
// records actually indexed, with exact virtual-clock boundaries that contain
// the batch's read windows.
func TestIndexerBatchSpan(t *testing.T) {
	const window = time.Millisecond
	db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{PerRead: window, Virtual: true}})
	sp := subspace.FromTuple(tuple.Tuple{"t"})
	v1 := baseSchemaV1(t)
	var users []*message.Message
	for i := int64(1); i <= 20; i++ {
		users = append(users, mkUser(i, fmt.Sprintf("u%d", i), i*10))
	}
	saveUsers(t, db, v1, sp, users...)

	v2 := evolveSchema(t)
	cfg := Config{InlineBuildLimit: 5}
	trace := obs.NewTrace()
	indexer := &OnlineIndexer{DB: db, MetaData: v2, Space: sp, IndexName: "by_score",
		BatchSize: 7, Config: cfg}
	n, err := indexer.Build(obs.WithTrace(context.Background(), trace))
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("indexed %d records", n)
	}
	spans := trace.Named(obs.SpanIndexerBatch)
	if len(spans) != 3 { // 20 records in batches of 7: 7+7+6
		t.Fatalf("batch spans: %d, want 3 (%+v)", len(spans), spans)
	}
	for i, s := range spans {
		wantRecords := 7
		if i == 2 {
			wantRecords = 6
		}
		want := fmt.Sprintf("batch=7 records=%d", wantRecords)
		if s.Attr != want {
			t.Fatalf("batch span %d attr %q, want %q", i, s.Attr, want)
		}
		if s.End <= s.Start {
			t.Fatalf("batch span %d has no duration: %+v", i, s)
		}
		if i > 0 && s.Start < spans[i-1].End {
			t.Fatalf("batch spans overlap across transactions: %+v", spans)
		}
	}
	// Every read window recorded during the build that falls inside a batch
	// transaction's span is priced by the same virtual clock.
	if !strings.Contains(trace.Summary(), obs.SpanIndexerBatch) {
		t.Fatalf("summary missing batch spans: %s", trace.Summary())
	}
}

// TestIndexerRetriesAppearInTrace: build batches that conflict are retried
// by the loop, and each retried attempt shows up in the ctx's trace with its
// cause.
func TestIndexerRetriesAppearInTrace(t *testing.T) {
	inj := fdb.NewFaultInjector(fdb.FaultConfig{Seed: 13, PCommitNotCommitted: 0.5})
	inj.Disable()
	db := fdb.Open(&fdb.Options{Faults: inj, Sleep: func(time.Duration) {}})
	sp := subspace.FromTuple(tuple.Tuple{"t"})
	var users []*message.Message
	for i := int64(1); i <= 20; i++ {
		users = append(users, mkUser(i, fmt.Sprintf("u%d", i), i*10))
	}
	saveUsers(t, db, baseSchemaV1(t), sp, users...)

	inj.Enable()
	trace := obs.NewTrace()
	indexer := &OnlineIndexer{DB: db, MetaData: evolveSchema(t), Space: sp, IndexName: "by_score",
		BatchSize: 7, Config: Config{InlineBuildLimit: 5}}
	if _, err := indexer.Build(obs.WithTrace(context.Background(), trace)); err != nil {
		t.Fatal(err)
	}
	for _, s := range trace.Named(obs.SpanAttempt) {
		if strings.Contains(s.Attr, "cause="+fdb.CauseConflict) {
			return
		}
	}
	t.Fatalf("no attempt span with cause=conflict in %+v", trace.Named(obs.SpanAttempt))
}
