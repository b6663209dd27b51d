package lease

import (
	"context"
	"strings"
	"testing"
	"time"

	"recordlayer/internal/fdb"
	"recordlayer/internal/obs"
	"recordlayer/internal/resource"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// TestRefreshRecordsHeartbeatSpan: with a trace bound to the ctx, every
// Refresh records one lease.refresh span carrying the lease count, plus the
// attempt spans of its heartbeat transactions.
func TestRefreshRecordsHeartbeatSpan(t *testing.T) {
	db := fdb.Open(nil)
	clock := &manualClock{now: time.Unix(1000, 0)}
	store := NewStore(db, subspace.FromTuple(tuple.Tuple{"leases"}))
	limits := resource.NewLimitsStore(db, subspace.FromTuple(tuple.Tuple{"limits"}))
	if err := limits.Set(context.Background(), "t", resource.Limits{TxnPerSecond: 30}); err != nil {
		t.Fatal(err)
	}
	gov := resource.NewGovernor(nil, resource.GovernorOptions{Clock: clock.Now})
	trace := obs.NewTrace()
	mgr := NewManager(gov, limits, store, Options{Server: "a", TTL: time.Second, Clock: clock.Now})
	ctx := obs.WithTrace(context.Background(), trace)
	defer mgr.Close(ctx)

	start := clock.Now().UnixNano()
	clock.Advance(5 * time.Millisecond)
	if _, err := mgr.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	spans := trace.Named(obs.SpanLeaseRefresh)
	if len(spans) != 1 {
		t.Fatalf("want 1 heartbeat span, got %d: %+v", len(spans), spans)
	}
	s := spans[0]
	if s.Name != obs.SpanLeaseRefresh {
		t.Errorf("span name = %q, want %q", s.Name, obs.SpanLeaseRefresh)
	}
	if s.Start < start || s.End < s.Start {
		t.Errorf("span window [%d,%d] not ordered after %d", s.Start, s.End, start)
	}
	if !strings.Contains(s.Attr, "server=a") || !strings.Contains(s.Attr, "leased=1") {
		t.Errorf("span attr = %q, want server and lease count", s.Attr)
	}
	// One limits read and one claim, each a single clean attempt.
	if n := len(trace.Named(obs.SpanAttempt)); n != 2 {
		t.Errorf("want 2 attempt spans, got %d", n)
	}

	// A second heartbeat appends a second span.
	clock.Advance(100 * time.Millisecond)
	if _, err := mgr.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if n := len(trace.Named(obs.SpanLeaseRefresh)); n != 2 {
		t.Errorf("want 2 spans after 2 heartbeats, got %d", n)
	}
}

// TestRefreshWithoutTraceRecordsNothing: a heartbeat under a ctx with no
// trace bound (the default) runs no span machinery and still leases.
func TestRefreshWithoutTraceRecordsNothing(t *testing.T) {
	h := newChurnHarness(t, resource.Limits{TxnPerSecond: 30}, time.Second)
	n, err := h.mgrs[0].Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("leased %d tenants, want 1", n)
	}
}

// TestRefreshRetriesAppearInTrace: heartbeat transactions that conflict are
// retried by the loop, and each retried attempt shows up in the ctx's trace
// with its cause.
func TestRefreshRetriesAppearInTrace(t *testing.T) {
	h := newFaultHarness(t, fdb.FaultConfig{Seed: 11, PCommitNotCommitted: 0.5}, time.Second)
	h.inj.Enable()
	trace := obs.NewTrace()
	if _, err := h.mgrs[0].Refresh(obs.WithTrace(context.Background(), trace)); err != nil {
		t.Fatal(err)
	}
	for _, s := range trace.Named(obs.SpanAttempt) {
		if strings.Contains(s.Attr, "cause="+fdb.CauseConflict) {
			return
		}
	}
	t.Fatalf("no attempt span with cause=conflict in %+v", trace.Named(obs.SpanAttempt))
}
