package resource

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestMeterConcurrent hammers one meter from many goroutines and checks the
// totals are exact — the counters must be race-free and lossless.
func TestMeterConcurrent(t *testing.T) {
	a := NewAccountant()
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := a.Tenant("acme") // concurrent create-on-first-use
			for i := 0; i < perG; i++ {
				m.RecordRead(1, 10)
				m.RecordWrite(2, 20)
				m.RecordConflict()
				m.RecordTxn(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	u := a.Tenant("acme").Snapshot()
	n := int64(goroutines * perG)
	if u.ReadRecords != n || u.ReadBytes != 10*n {
		t.Errorf("reads = %d/%d, want %d/%d", u.ReadRecords, u.ReadBytes, n, 10*n)
	}
	if u.WriteRecords != 2*n || u.WriteBytes != 20*n {
		t.Errorf("writes = %d/%d, want %d/%d", u.WriteRecords, u.WriteBytes, 2*n, 20*n)
	}
	if u.Conflicts != n || u.Transactions != n {
		t.Errorf("conflicts/txns = %d/%d, want %d/%d", u.Conflicts, u.Transactions, n, n)
	}
	if got := u.MeanTxnTime(); got != time.Microsecond {
		t.Errorf("mean latency = %v, want 1µs", got)
	}
}

// TestNilMeterSafe checks every Meter method and the Accountant tolerate nil.
func TestNilMeterSafe(t *testing.T) {
	var m *Meter
	m.RecordRead(1, 1)
	m.RecordWrite(1, 1)
	m.RecordConflict()
	m.RecordTxn(time.Second)
	if m.Snapshot() != (Usage{}) || m.Tenant() != "" {
		t.Error("nil meter should snapshot to zero")
	}
	var a *Accountant
	if a.Tenant("x") != nil || a.Snapshot() != nil || a.Tenants() != nil {
		t.Error("nil accountant should produce nil meters and snapshots")
	}
}

func TestAccountantSnapshotSorted(t *testing.T) {
	a := NewAccountant()
	for _, id := range []string{"c", "a", "b"} {
		a.Tenant(id).RecordRead(1, 1)
	}
	snap := a.Snapshot()
	if len(snap) != 3 || snap[0].Tenant != "a" || snap[1].Tenant != "b" || snap[2].Tenant != "c" {
		t.Fatalf("snapshot not sorted: %+v", snap)
	}
}

// manualClock is a settable time source for token-bucket tests.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestTokenBucket checks the rate quota: burst admissions pass, the next is
// rejected with a typed QuotaExceededError carrying RetryAfter, and refill
// restores admission.
func TestTokenBucket(t *testing.T) {
	clock := &manualClock{now: time.Unix(1000, 0)}
	g := NewGovernor(nil, GovernorOptions{Clock: clock.Now})
	g.SetLimits("hot", Limits{TxnPerSecond: 10, Burst: 2})
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		release, err := g.Admit(ctx, "hot")
		if err != nil {
			t.Fatalf("burst admit %d: %v", i, err)
		}
		release()
	}
	_, err := g.Admit(ctx, "hot")
	var qe *QuotaExceededError
	if !errors.As(err, &qe) {
		t.Fatalf("want QuotaExceededError, got %v", err)
	}
	if qe.Tenant != "hot" || qe.RetryAfter <= 0 || qe.RetryAfter > 100*time.Millisecond {
		t.Errorf("unexpected quota error: %+v", qe)
	}

	clock.Advance(qe.RetryAfter)
	release, err := g.Admit(ctx, "hot")
	if err != nil {
		t.Fatalf("admit after refill: %v", err)
	}
	release()

	u := g.Accountant().Tenant("hot").Snapshot()
	if u.Admitted != 3 || u.Rejected != 1 {
		t.Errorf("admitted/rejected = %d/%d, want 3/1", u.Admitted, u.Rejected)
	}

	// Another tenant is unaffected (default limits are unlimited).
	if _, err := g.Admit(ctx, "cold"); err != nil {
		t.Fatalf("unrelated tenant throttled: %v", err)
	}
}

// TestSetLimitsReapplyKeepsBucket checks that re-asserting unchanged limits
// (a config-reconciliation loop) does not refresh a drained bucket, and that
// a cancelled queued admission refunds its token without counting as a
// quota rejection.
func TestSetLimitsReapplyKeepsBucket(t *testing.T) {
	clock := &manualClock{now: time.Unix(1000, 0)}
	g := NewGovernor(nil, GovernorOptions{Clock: clock.Now})
	lim := Limits{TxnPerSecond: 10, Burst: 2}
	g.SetLimits("hot", lim)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		r, err := g.Admit(ctx, "hot")
		if err != nil {
			t.Fatal(err)
		}
		r()
	}
	g.SetLimits("hot", lim) // re-apply: must NOT re-prime the burst
	if _, err := g.Admit(ctx, "hot"); !IsQuota(err) {
		t.Fatalf("re-applied limits refreshed the bucket: %v", err)
	}
	// A raised rate takes effect from the kept balance, not a fresh burst.
	g.SetLimits("hot", Limits{TxnPerSecond: 20, Burst: 4})
	if _, err := g.Admit(ctx, "hot"); !IsQuota(err) {
		t.Fatalf("rate change re-primed the bucket: %v", err)
	}

	// Cancelled-while-queued refunds the token and is not a rejection.
	g.SetLimits("slow", Limits{TxnPerSecond: 10, Burst: 1, MaxConcurrent: 1})
	hold, err := g.Admit(ctx, "slow")
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second) // refill so the queued admission gets a token
	cctx, cancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	go func() {
		_, err := g.Admit(cctx, "slow")
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued admit returned %v", err)
	}
	hold()
	if u := g.Accountant().Tenant("slow").Snapshot(); u.Rejected != 0 {
		t.Errorf("cancellation counted as quota rejection: %+v", u)
	}
	// The refunded token admits immediately.
	if r, err := g.Admit(ctx, "slow"); err != nil {
		t.Fatalf("refunded token not available: %v", err)
	} else {
		r()
	}
}

// IsQuota reports err is a *QuotaExceededError (test helper).
func IsQuota(err error) bool {
	var qe *QuotaExceededError
	return errors.As(err, &qe)
}

// TestConcurrencyCeiling checks that an admission over the tenant ceiling
// waits until a slot frees, and that release is idempotent.
func TestConcurrencyCeiling(t *testing.T) {
	g := NewGovernor(nil, GovernorOptions{})
	g.SetLimits("t", Limits{MaxConcurrent: 1})
	ctx := context.Background()

	r1, err := g.Admit(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan struct{})
	go func() {
		r2, err := g.Admit(ctx, "t")
		if err != nil {
			t.Error(err)
			close(got)
			return
		}
		close(got)
		r2()
	}()
	select {
	case <-got:
		t.Fatal("second admission should have waited for the ceiling")
	case <-time.After(20 * time.Millisecond):
	}
	r1()
	r1() // idempotent
	select {
	case <-got:
	case <-time.After(time.Second):
		t.Fatal("waiter never granted after release")
	}
	if admitted, waiting := g.Inflight(); waiting != 0 {
		t.Errorf("inflight=%d waiting=%d after drain", admitted, waiting)
	}
}

// TestAdmitCancellation checks a queued waiter honors context cancellation.
func TestAdmitCancellation(t *testing.T) {
	g := NewGovernor(nil, GovernorOptions{TotalConcurrent: 1})
	release, err := g.Admit(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := g.Admit(ctx, "b")
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	release()
	// The cancelled waiter must not hold a phantom slot.
	if r, err := g.Admit(context.Background(), "c"); err != nil {
		t.Fatalf("capacity leaked after cancellation: %v", err)
	} else {
		r()
	}
}

// TestWeightedFairDispatch fills the global capacity with tenant A, queues
// waiters for A and B, and checks that on release B (zero in-flight share)
// is granted before A's additional waiters, and that a weight-2 tenant gets
// twice the share of a weight-1 tenant.
func TestWeightedFairDispatch(t *testing.T) {
	g := NewGovernor(nil, GovernorOptions{TotalConcurrent: 2})
	g.SetLimits("a", Limits{Weight: 1})
	g.SetLimits("b", Limits{Weight: 1})
	ctx := context.Background()

	ra1, err := g.Admit(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	ra2, err := g.Admit(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}

	order := make(chan string, 4)
	var wg sync.WaitGroup
	admitAsync := func(tenant string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := g.Admit(ctx, tenant)
			if err != nil {
				t.Error(err)
				return
			}
			order <- tenant
			r()
		}()
		time.Sleep(5 * time.Millisecond) // deterministic queue order
	}
	admitAsync("a")
	admitAsync("b")

	ra1()
	first := <-order
	if first != "b" {
		t.Errorf("first grant after release = %q, want b (A already holds a slot)", first)
	}
	ra2()
	wg.Wait()
}

// TestGrantedRaceWithCancel exercises the grant-versus-cancel race: a waiter
// whose context is cancelled right as it is granted must hand the slot back.
func TestGrantedRaceWithCancel(t *testing.T) {
	g := NewGovernor(nil, GovernorOptions{TotalConcurrent: 1})
	for i := 0; i < 50; i++ {
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
}

func TestTenantKey(t *testing.T) {
	if k := TenantKey("app", int64(7)); k != "app/7" {
		t.Errorf("TenantKey = %q", k)
	}
	if k := TenantKey("solo"); k != "solo" {
		t.Errorf("TenantKey = %q", k)
	}
}

// TestContextCarriage round-trips the tenant through a context.
func TestContextCarriage(t *testing.T) {
	ctx := context.Background()
	if _, ok := TenantFrom(ctx); ok {
		t.Error("empty context should carry no tenant")
	}
	ctx = WithTenant(ctx, "acme")
	if id, ok := TenantFrom(ctx); !ok || id != "acme" {
		t.Errorf("TenantFrom = %q, %v", id, ok)
	}
}
