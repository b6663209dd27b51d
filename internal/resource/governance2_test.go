package resource

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"recordlayer/internal/fdb"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// TestByteBucketExhaustionRefill drives the byte-rate quota with a manual
// clock: post-hoc charges drain the bucket into debt, admissions are
// rejected with a byte-rate QuotaExceededError whose RetryAfter covers the
// debt, and refill restores admission.
func TestByteBucketExhaustionRefill(t *testing.T) {
	clock := &manualClock{now: time.Unix(1000, 0)}
	g := NewGovernor(nil, GovernorOptions{Clock: clock.Now})
	g.SetLimits("hog", Limits{BytesPerSecond: 1000, ByteBurst: 500})
	ctx := context.Background()

	r, err := g.Admit(ctx, "hog")
	if err != nil {
		t.Fatalf("admit with full byte bucket: %v", err)
	}
	// The work read+wrote 600 bytes: 100 bytes of debt.
	g.ChargeBytes("hog", 600)
	r()

	_, err = g.Admit(ctx, "hog")
	var qe *QuotaExceededError
	if !errors.As(err, &qe) {
		t.Fatalf("want QuotaExceededError, got %v", err)
	}
	if qe.Resource != QuotaByteRate {
		t.Errorf("Resource = %q, want %q", qe.Resource, QuotaByteRate)
	}
	// 100 bytes of debt plus one byte of headroom at 1000 B/s ≈ 101ms.
	if qe.RetryAfter < 100*time.Millisecond || qe.RetryAfter > 110*time.Millisecond {
		t.Errorf("RetryAfter = %v, want ~101ms", qe.RetryAfter)
	}
	if u := g.Accountant().Tenant("hog").Snapshot(); u.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", u.Rejected)
	}

	clock.Advance(qe.RetryAfter)
	r, err = g.Admit(ctx, "hog")
	if err != nil {
		t.Fatalf("admit after refill: %v", err)
	}
	r()

	// The bucket clamps at its burst: after a long idle stretch only
	// ByteBurst bytes are drainable at once.
	clock.Advance(time.Hour)
	g.ChargeBytes("hog", 499)
	if r, err := g.Admit(ctx, "hog"); err != nil {
		t.Fatalf("one byte of headroom should admit: %v", err)
	} else {
		r()
	}
	g.ChargeBytes("hog", 2)
	if _, err := g.Admit(ctx, "hog"); !IsQuota(err) {
		t.Fatalf("burst-clamped bucket admitted over budget: %v", err)
	}
}

// TestByteDebtRejectsQueuedWaiters checks grant-time enforcement: a waiter
// that passed the entry check while the bucket was positive is rejected —
// not granted — once post-hoc charges drain the bucket.
func TestByteDebtRejectsQueuedWaiters(t *testing.T) {
	clock := &manualClock{now: time.Unix(1000, 0)}
	g := NewGovernor(nil, GovernorOptions{Clock: clock.Now})
	g.SetLimits("hog", Limits{BytesPerSecond: 1000, ByteBurst: 500, MaxConcurrent: 1})
	ctx := context.Background()

	hold, err := g.Admit(ctx, "hog")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := g.Admit(ctx, "hog") // queues on the concurrency ceiling
		errc <- err
	}()
	for {
		if _, waiting := g.Inflight(); waiting == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	g.ChargeBytes("hog", 600) // the in-flight work drained the budget
	err = <-errc
	var qe *QuotaExceededError
	if !errors.As(err, &qe) || qe.Resource != QuotaByteRate {
		t.Fatalf("queued waiter not rejected on byte debt: %v", err)
	}
	hold()
	if admitted, waiting := g.Inflight(); admitted != 0 || waiting != 0 {
		t.Errorf("leaked state: admitted=%d waiting=%d", admitted, waiting)
	}
	if u := g.Accountant().Tenant("hog").Snapshot(); u.Rejected != 1 || u.Admitted != 1 {
		t.Errorf("admitted/rejected = %d/%d, want 1/1", u.Admitted, u.Rejected)
	}
}

// TestByteSinkSurvivesMeterEviction: a meter recreated after
// Accountant.EvictIdle — by traffic arriving outside the admission path —
// must still debit the tenant's byte bucket.
func TestByteSinkSurvivesMeterEviction(t *testing.T) {
	clock := &manualClock{now: time.Unix(1000, 0)}
	acct := NewAccountant()
	g := NewGovernor(acct, GovernorOptions{Clock: clock.Now})
	g.SetLimits("hog", Limits{BytesPerSecond: 1000, ByteBurst: 500})
	ctx := context.Background()
	if r, err := g.Admit(ctx, "hog"); err != nil {
		t.Fatal(err)
	} else {
		r()
	}
	// Two quiet sweeps drop the meter (the governor state survives).
	acct.EvictIdle()
	acct.EvictIdle()
	if acct.Len() != 0 {
		t.Fatalf("meter not evicted: %d", acct.Len())
	}
	// Provider-path traffic recreates the meter with no Admit in between;
	// its bytes must still reach the bucket.
	acct.Tenant("hog").RecordRead(10, 600)
	if _, err := g.Admit(ctx, "hog"); !IsQuota(err) {
		t.Fatalf("bypass bytes escaped the byte bucket: %v", err)
	}
}

// TestByteQuotaConfiguredAfterMeterExists: a tenant whose meter was created
// by provider-path traffic before any byte quota existed must still pick the
// quota up when it is configured later (SetLimits or a LimitsStore reload).
func TestByteQuotaConfiguredAfterMeterExists(t *testing.T) {
	clock := &manualClock{now: time.Unix(1000, 0)}
	acct := NewAccountant()
	g := NewGovernor(acct, GovernorOptions{Clock: clock.Now})
	ctx := context.Background()

	// Bypass traffic creates the meter first — no quota, no sink.
	acct.Tenant("late").RecordWrite(10, 10_000)

	g.SetLimits("late", Limits{BytesPerSecond: 1000, ByteBurst: 500})
	acct.Tenant("late").RecordRead(10, 600) // bypass traffic under the new quota
	if _, err := g.Admit(ctx, "late"); !IsQuota(err) {
		t.Fatalf("SetLimits after meter creation did not attach the byte sink: %v", err)
	}

	// Same flow through a LimitsStore reload.
	db := fdb.Open(nil)
	store := NewLimitsStore(db, subspace.FromTuple(tuple.Tuple{"t"}))
	if err := store.Set(context.Background(), "late2", Limits{BytesPerSecond: 1000, ByteBurst: 500}); err != nil {
		t.Fatal(err)
	}
	acct.Tenant("late2").RecordWrite(1, 1) // meter exists before the reload
	if _, err := g.LoadLimits(context.Background(), store); err != nil {
		t.Fatal(err)
	}
	acct.Tenant("late2").RecordRead(10, 600)
	if _, err := g.Admit(ctx, "late2"); !IsQuota(err) {
		t.Fatalf("LoadLimits did not attach the byte sink to an existing meter: %v", err)
	}
}

// TestLimitsStoreRoundTrip checks Set/Get/All/Delete and the tuple encoding
// of every Limits field.
func TestLimitsStoreRoundTrip(t *testing.T) {
	db := fdb.Open(nil)
	s := NewLimitsStore(db, subspace.FromTuple(tuple.Tuple{"test", "limits"}))

	want := Limits{
		TxnPerSecond:   12.5,
		Burst:          3,
		BytesPerSecond: 65536,
		ByteBurst:      1 << 20,
		MaxConcurrent:  7,
		Weight:         2,
	}
	if err := s.Set(context.Background(), "acme", want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(context.Background(), "acme")
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v, %v", got, ok, err)
	}
	if got != want {
		t.Errorf("round trip: got %+v, want %+v", got, want)
	}
	if _, ok, err := s.Get(context.Background(), "missing"); ok || err != nil {
		t.Errorf("missing tenant: ok=%v err=%v", ok, err)
	}

	if err := s.Set(context.Background(), "beta", Limits{TxnPerSecond: 1}); err != nil {
		t.Fatal(err)
	}
	all, err := s.All(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || all["acme"] != want || all["beta"].TxnPerSecond != 1 {
		t.Errorf("All = %+v", all)
	}

	if err := s.Delete(context.Background(), "acme"); err != nil {
		t.Fatal(err)
	}
	if all, err = s.All(context.Background()); err != nil || len(all) != 1 {
		t.Errorf("after delete: %+v, %v", all, err)
	}
}

// TestLoadLimitsAcrossGovernors checks the stateless-server flow: two
// governors loading one store enforce identical limits with no SetLimits
// call, and a deleted row reverts the tenant to defaults on reload.
func TestLoadLimitsAcrossGovernors(t *testing.T) {
	db := fdb.Open(nil)
	store := NewLimitsStore(db, subspace.FromTuple(tuple.Tuple{"test", "limits"}))
	want := Limits{TxnPerSecond: 10, Burst: 2}
	if err := store.Set(context.Background(), "hot", want); err != nil {
		t.Fatal(err)
	}

	clock := &manualClock{now: time.Unix(1000, 0)}
	a := NewGovernor(nil, GovernorOptions{Clock: clock.Now})
	b := NewGovernor(nil, GovernorOptions{Clock: clock.Now})
	for _, g := range []*Governor{a, b} {
		n, err := g.LoadLimits(context.Background(), store)
		if err != nil || n != 1 {
			t.Fatalf("LoadLimits = %d, %v", n, err)
		}
	}
	if a.LimitsFor("hot") != want || b.LimitsFor("hot") != want {
		t.Fatalf("governors disagree: %+v vs %+v", a.LimitsFor("hot"), b.LimitsFor("hot"))
	}
	// Both enforce: each admits its burst then rejects.
	ctx := context.Background()
	for _, g := range []*Governor{a, b} {
		for i := 0; i < 2; i++ {
			r, err := g.Admit(ctx, "hot")
			if err != nil {
				t.Fatal(err)
			}
			r()
		}
		if _, err := g.Admit(ctx, "hot"); !IsQuota(err) {
			t.Fatalf("store-fed governor did not enforce: %v", err)
		}
	}

	// A reload with the row deleted reverts the live tenant to defaults.
	if err := store.Delete(context.Background(), "hot"); err != nil {
		t.Fatal(err)
	}
	if n, err := a.LoadLimits(context.Background(), store); err != nil || n != 0 {
		t.Fatalf("reload = %d, %v", n, err)
	}
	if l := a.LimitsFor("hot"); l != (Limits{}) {
		t.Errorf("tenant did not revert to defaults: %+v", l)
	}
	if r, err := a.Admit(ctx, "hot"); err != nil {
		t.Fatalf("default-limited tenant rejected: %v", err)
	} else {
		r()
	}
}

// TestBackgroundYieldsToForeground checks priority dispatch: with the
// cluster at capacity, a foreground waiter is granted before an
// earlier-queued background waiter.
func TestBackgroundYieldsToForeground(t *testing.T) {
	g := NewGovernor(nil, GovernorOptions{TotalConcurrent: 1})
	ctx := context.Background()
	hold, err := g.Admit(ctx, "app")
	if err != nil {
		t.Fatal(err)
	}

	order := make(chan string, 2)
	queued := 0
	spawn := func(name string, ctx context.Context) {
		go func() {
			r, err := g.Admit(ctx, name)
			if err != nil {
				t.Error(err)
				return
			}
			order <- name
			r()
		}()
		// Wait until the waiter is queued so arrival order is deterministic.
		queued++
		for {
			if _, waiting := g.Inflight(); waiting >= queued {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	spawn("indexer", WithPriority(ctx, PriorityBackground)) // queued first
	spawn("user", ctx)                                      // foreground, queued second

	hold()
	if first := <-order; first != "user" {
		t.Errorf("first grant = %q, want the foreground waiter", first)
	}
	if second := <-order; second != "indexer" {
		t.Errorf("second grant = %q, want the background waiter", second)
	}
}

// TestBackgroundFastPathDefersToForegroundWaiters checks a background
// admission queues behind an eligible foreground waiter even when capacity
// is free at the moment it arrives.
func TestBackgroundFastPathDefersToForegroundWaiters(t *testing.T) {
	g := NewGovernor(nil, GovernorOptions{TotalConcurrent: 2})
	ctx := context.Background()
	h1, err := g.Admit(ctx, "app")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := g.Admit(ctx, "app")
	if err != nil {
		t.Fatal(err)
	}
	fgGranted := make(chan struct{})
	go func() {
		r, err := g.Admit(ctx, "app") // foreground waiter at capacity
		if err == nil {
			close(fgGranted)
			r()
		}
	}()
	for {
		if _, waiting := g.Inflight(); waiting == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Free one slot and immediately ask for a background admission: the
	// foreground waiter must win the freed slot.
	h1()
	<-fgGranted
	bctx, cancel := context.WithTimeout(WithPriority(ctx, PriorityBackground), 50*time.Millisecond)
	defer cancel()
	if r, err := g.Admit(bctx, "indexer"); err != nil {
		t.Fatalf("background admission with free capacity: %v", err)
	} else {
		r()
	}
	h2()
}

// TestEvictIdleTenants10k is the bounded-state acceptance check: a governor
// and accountant tracking 10k idle tenants shrink back after eviction, and
// a tenant with a drained bucket survives the sweep (forgetting it would
// refresh its quota for free).
func TestEvictIdleTenants10k(t *testing.T) {
	clock := &manualClock{now: time.Unix(1000, 0)}
	acct := NewAccountant()
	g := NewGovernor(acct, GovernorOptions{
		IdleTTL: time.Minute,
		Clock:   clock.Now,
	})
	ctx := context.Background()
	const n = 10_000
	for i := 0; i < n; i++ {
		r, err := g.Admit(ctx, fmt.Sprintf("tenant-%05d", i))
		if err != nil {
			t.Fatal(err)
		}
		r()
	}
	// One tenant drains its rate bucket and must survive eviction.
	g.SetLimits("drained", Limits{TxnPerSecond: 0.001, Burst: 1})
	if r, err := g.Admit(ctx, "drained"); err != nil {
		t.Fatal(err)
	} else {
		r()
	}
	if got := g.TenantCount(); got != n+1 {
		t.Fatalf("TenantCount = %d, want %d", got, n+1)
	}
	if got := acct.Len(); got != n+1 {
		t.Fatalf("accountant Len = %d, want %d", got, n+1)
	}

	clock.Advance(2 * time.Minute)
	evicted := g.EvictIdle(0)
	if evicted != n {
		t.Errorf("EvictIdle = %d, want %d (drained bucket must survive)", evicted, n)
	}
	if got := g.TenantCount(); got != 1 {
		t.Errorf("TenantCount after eviction = %d, want 1", got)
	}
	// The survivor's drained bucket still rejects: no quota-reset hole.
	if _, err := g.Admit(ctx, "drained"); !IsQuota(err) {
		t.Errorf("drained tenant admitted after sweep: %v", err)
	}
	// Once its bucket refills completely, it goes too.
	clock.Advance(20 * time.Minute)
	if got := g.EvictIdle(0); got != 1 {
		t.Errorf("refilled tenant not evicted: %d", got)
	}

	// Accountant: first sweep records watermarks, second drops everything
	// quiet since — all n tenants plus "drained" (no traffic in between).
	acct.EvictIdle()
	if evicted := acct.EvictIdle(); evicted != n+1 {
		t.Errorf("accountant EvictIdle = %d, want %d", evicted, n+1)
	}
	if got := acct.Len(); got != 0 {
		t.Errorf("accountant Len after eviction = %d, want 0", got)
	}
}

// TestAutomaticSweepDuringAdmit checks the opportunistic sweep: with IdleTTL
// set, Admit itself evicts long-idle tenants without any EvictIdle call.
func TestAutomaticSweepDuringAdmit(t *testing.T) {
	clock := &manualClock{now: time.Unix(1000, 0)}
	g := NewGovernor(nil, GovernorOptions{IdleTTL: time.Minute, Clock: clock.Now})
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		r, err := g.Admit(ctx, fmt.Sprintf("old-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		r()
	}
	clock.Advance(2 * time.Minute)
	r, err := g.Admit(ctx, "fresh")
	if err != nil {
		t.Fatal(err)
	}
	r()
	if got := g.TenantCount(); got != 1 {
		t.Errorf("TenantCount after opportunistic sweep = %d, want 1 (just fresh)", got)
	}
}

// TestReleaseDoesNotRecreateState is the regression for the quota-reset
// hole: releasing an unknown (e.g. already-evicted) tenant must not
// materialize fresh state with a full bucket.
func TestReleaseDoesNotRecreateState(t *testing.T) {
	g := NewGovernor(nil, GovernorOptions{})
	g.mu.Lock()
	g.releaseLocked("ghost")
	g.mu.Unlock()
	if got := g.TenantCount(); got != 0 {
		t.Errorf("releaseLocked created state for unknown tenant: %d", got)
	}
	if admitted, _ := g.Inflight(); admitted != 0 {
		t.Errorf("inflight went negative: %d", admitted)
	}
}

// TestGrantedRaceWithCancelRefundsToken extends the grant-versus-cancel race
// to a rate-limited tenant: whichever way the race resolves, no token may
// leak and no state may be corrupted.
func TestGrantedRaceWithCancelRefundsToken(t *testing.T) {
	g := NewGovernor(nil, GovernorOptions{TotalConcurrent: 1})
	g.SetLimits("racer", Limits{TxnPerSecond: 1e9, Burst: 1 << 20})
	for i := 0; i < 100; i++ {
		release, err := g.Admit(context.Background(), "holder")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			if r, err := g.Admit(ctx, "racer"); err == nil {
				r()
			}
			close(done)
		}()
		go cancel()
		release()
		<-done
		if admitted, waiting := g.Inflight(); admitted != 0 || waiting != 0 {
			t.Fatalf("iteration %d leaked: admitted=%d waiting=%d", i, admitted, waiting)
		}
	}
	// After 100 races a further admission still succeeds immediately.
	if r, err := g.Admit(context.Background(), "racer"); err != nil {
		t.Fatalf("post-race admission: %v", err)
	} else {
		r()
	}
}

// TestPriorityContextRoundTrip checks the priority context plumbing.
func TestPriorityContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if got := PriorityFrom(ctx); got != PriorityForeground {
		t.Errorf("unbound context priority = %v", got)
	}
	ctx = WithPriority(ctx, PriorityBackground)
	if got := PriorityFrom(ctx); got != PriorityBackground {
		t.Errorf("PriorityFrom = %v", got)
	}
	if PriorityBackground.String() != "background" || PriorityForeground.String() != "foreground" {
		t.Error("priority String()")
	}
}

// TestAccountantForEach checks the lightweight iteration path.
func TestAccountantForEach(t *testing.T) {
	a := NewAccountant()
	for _, id := range []string{"a", "b", "c"} {
		a.Tenant(id).RecordRead(1, 1)
	}
	seen := 0
	a.ForEach(func(m *Meter) bool { seen++; return true })
	if seen != 3 {
		t.Errorf("ForEach visited %d, want 3", seen)
	}
	seen = 0
	a.ForEach(func(m *Meter) bool { seen++; return false })
	if seen != 1 {
		t.Errorf("ForEach did not stop early: %d", seen)
	}
	var nilA *Accountant
	nilA.ForEach(func(*Meter) bool { t.Error("nil accountant iterated"); return true })
	if nilA.Len() != 0 || nilA.EvictIdle() != 0 {
		t.Error("nil accountant Len/EvictIdle")
	}
}
