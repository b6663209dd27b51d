package resource

import (
	"context"
	"strings"
	"testing"
	"time"

	"recordlayer/internal/fdb"
	"recordlayer/internal/obs"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// TestExportRecordsSpan: with a trace bound to the ctx, every export tick
// records one metering.export span carrying the window count, plus the
// export transaction's attempt span; an untraced ctx records nothing.
func TestExportRecordsSpan(t *testing.T) {
	db := fdb.Open(nil)
	clock := &manualClock{now: time.Unix(1000, 0)}
	acct := NewAccountant()
	store := NewMeteringStore(db, subspace.FromTuple(tuple.Tuple{"metering"}))
	exp := NewUsageExporter(acct, store, "srv-1", clock.Now)
	trace := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), trace)

	acct.Tenant("acme").RecordRead(3, 300)
	clock.Advance(time.Second)
	n, err := exp.Export(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("exported windows = %d, want 1", n)
	}
	spans := trace.Named(obs.SpanMeterExport)
	if len(spans) != 1 {
		t.Fatalf("want 1 export span, got %d: %+v", len(spans), spans)
	}
	s := spans[0]
	if s.Name != obs.SpanMeterExport {
		t.Errorf("span name = %q, want %q", s.Name, obs.SpanMeterExport)
	}
	if !strings.Contains(s.Attr, "server=srv-1") || !strings.Contains(s.Attr, "windows=1") {
		t.Errorf("span attr = %q, want server and window count", s.Attr)
	}
	if n := len(trace.Named(obs.SpanAttempt)); n != 1 {
		t.Errorf("want 1 attempt span, got %d", n)
	}
	recorded := len(trace.Spans())

	// An untraced ctx: further ticks stay span-free.
	acct.Tenant("acme").RecordRead(1, 10)
	clock.Advance(time.Second)
	if _, err := exp.Export(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := len(trace.Spans()); n != recorded {
		t.Errorf("untraced export still recorded spans: %d, want %d", n, recorded)
	}
}

// TestExportRetriesAppearInTrace: an export commit that conflicts is retried
// by the loop, and the retried attempt shows up in the ctx's trace with its
// cause.
func TestExportRetriesAppearInTrace(t *testing.T) {
	inj := fdb.NewFaultInjector(fdb.FaultConfig{Seed: 12, PCommitNotCommitted: 0.5})
	db := fdb.Open(&fdb.Options{Faults: inj, Sleep: func(time.Duration) {}})
	acct := NewAccountant()
	exp := NewUsageExporter(acct, NewMeteringStore(db, subspace.FromTuple(tuple.Tuple{"metering"})), "srv-1", nil)
	trace := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), trace)
	for i := 0; i < 4; i++ {
		acct.Tenant("acme").RecordRead(1, 10)
		if _, err := exp.Export(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range trace.Named(obs.SpanAttempt) {
		if strings.Contains(s.Attr, "cause="+fdb.CauseConflict) {
			return
		}
	}
	t.Fatalf("no attempt span with cause=conflict in %+v", trace.Named(obs.SpanAttempt))
}
