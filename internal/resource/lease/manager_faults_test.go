package lease

import (
	"context"
	"math"
	"testing"
	"time"

	"recordlayer/internal/fdb"
	"recordlayer/internal/resource"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// faultHarness is two lease-coordinated governors over one fault-injected
// database, with a manual clock.
type faultHarness struct {
	clock  *manualClock
	inj    *fdb.FaultInjector
	store  *Store
	limits *resource.LimitsStore
	govs   [2]*resource.Governor
	mgrs   [2]*Manager
}

const faultGlobal = 100.0

func newFaultHarness(t *testing.T, cfg fdb.FaultConfig, ttl time.Duration) *faultHarness {
	t.Helper()
	inj := fdb.NewFaultInjector(cfg)
	inj.Disable() // healthy until a test turns the storm on
	db := fdb.Open(&fdb.Options{Faults: inj, Sleep: func(time.Duration) {}})
	h := &faultHarness{
		clock:  &manualClock{now: time.Unix(1000, 0)},
		inj:    inj,
		store:  NewStore(db, subspace.FromTuple(tuple.Tuple{"leases"})),
		limits: resource.NewLimitsStore(db, subspace.FromTuple(tuple.Tuple{"limits"})),
	}
	if err := h.limits.Set(context.Background(), "t", resource.Limits{TxnPerSecond: faultGlobal, Burst: 10}); err != nil {
		t.Fatal(err)
	}
	for i := range h.govs {
		h.govs[i] = resource.NewGovernor(nil, resource.GovernorOptions{Clock: h.clock.Now})
		h.mgrs[i] = NewManager(h.govs[i], h.limits, h.store, Options{
			Server: string(rune('a' + i)),
			TTL:    ttl,
			Clock:  h.clock.Now,
		})
	}
	return h
}

// assertInvariants checks, at the current clock, that live rows never sum
// past the global budget and the managers' enforced slices never sum past the
// decay bound (global plus one floor per server).
func (h *faultHarness) assertInvariants(t *testing.T, step string) {
	t.Helper()
	live, err := h.store.Live(context.Background(), "t", h.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	var rowSum float64
	for _, r := range live {
		rowSum += r.Slice.Txn
	}
	if rowSum > faultGlobal+sumEps {
		t.Fatalf("%s: live rows sum to %v, exceeding global %v", step, rowSum, faultGlobal)
	}
	var enforced float64
	for _, m := range h.mgrs {
		if s, ok := m.Held("t"); ok {
			enforced += s.Txn
		}
	}
	bound := faultGlobal * (1 + MinFraction*float64(len(h.mgrs)))
	if enforced > bound+sumEps {
		t.Fatalf("%s: enforced slices sum to %v, exceeding decay bound %v", step, enforced, bound)
	}
}

// TestMaybeCommittedClaimDecaysImmediately: a heartbeat whose claim commit
// ends maybe-committed (and in fact applied) may have rewritten the row, so
// the manager cannot keep enforcing its remembered slice — it must drop to
// the floor at once, not only when the old slice's TTL lapses.
func TestMaybeCommittedClaimDecaysImmediately(t *testing.T) {
	ttl := 2 * time.Second
	h := newFaultHarness(t, fdb.FaultConfig{Seed: 1, PCommitUnknown: 1, PUnknownApplied: 1}, ttl)

	// Healthy rounds: both servers converge to the equal split.
	for round := 0; round < 2; round++ {
		for i := range h.mgrs {
			if _, err := h.mgrs[i].Refresh(context.Background()); err != nil {
				t.Fatalf("healthy refresh %d: %v", i, err)
			}
			h.assertInvariants(t, "healthy")
		}
	}
	if s, _ := h.mgrs[1].Held("t"); math.Abs(s.Txn-faultGlobal/2) > sumEps {
		t.Fatalf("pre-fault slice = %v, want %v", s.Txn, faultGlobal/2)
	}

	floor := faultGlobal * MinFraction
	for round := 0; round < 6; round++ {
		h.clock.Advance(ttl / 4)
		if _, err := h.mgrs[0].Refresh(context.Background()); err != nil {
			t.Fatalf("round %d: healthy peer refresh: %v", round, err)
		}
		h.inj.Enable()
		_, err := h.mgrs[1].Refresh(context.Background())
		h.inj.Disable()
		if !fdb.IsMaybeCommitted(err) {
			t.Fatalf("round %d: refresh error = %v, want maybe-committed", round, err)
		}
		// The decay is immediate: the very round the claim's fate went
		// unknown, the victim enforces only the floor.
		if s, ok := h.mgrs[1].Held("t"); !ok || math.Abs(s.Txn-floor) > sumEps {
			t.Fatalf("round %d: victim enforces %v, want immediate floor %v", round, s.Txn, floor)
		}
		if got := h.govs[1].LimitsFor("t").TxnPerSecond; math.Abs(got-floor) > sumEps {
			t.Fatalf("round %d: victim governor rate %v, want floor %v", round, got, floor)
		}
		h.assertInvariants(t, "storm")
	}

	// Recovery: one clean heartbeat regains a real slice.
	h.clock.Advance(ttl / 4)
	if _, err := h.mgrs[1].Refresh(context.Background()); err != nil {
		t.Fatalf("recovery refresh: %v", err)
	}
	h.assertInvariants(t, "recovered")
	if s, _ := h.mgrs[1].Held("t"); s.Txn <= floor+sumEps {
		t.Fatalf("recovered slice = %v, want above the floor", s.Txn)
	}
}

// TestCleanClaimFailureKeepsSliceUntilTTL: a claim that fails *cleanly*
// (not_committed — nothing was written) leaves the row intact, so the manager
// keeps enforcing its unexpired slice through failed heartbeats, and decays
// to the floor only once the slice's TTL lapses unrenewed.
func TestCleanClaimFailureKeepsSliceUntilTTL(t *testing.T) {
	ttl := 2 * time.Second
	h := newFaultHarness(t, fdb.FaultConfig{Seed: 2, PCommitNotCommitted: 1}, ttl)

	for round := 0; round < 2; round++ {
		for i := range h.mgrs {
			if _, err := h.mgrs[i].Refresh(context.Background()); err != nil {
				t.Fatalf("healthy refresh %d: %v", i, err)
			}
		}
	}
	half := faultGlobal / 2
	expiry := h.clock.Now().Add(ttl)

	floor := faultGlobal * MinFraction
	for round := 0; round < 10; round++ {
		h.clock.Advance(ttl / 4)
		if _, err := h.mgrs[0].Refresh(context.Background()); err != nil {
			t.Fatalf("round %d: healthy peer refresh: %v", round, err)
		}
		h.inj.Enable()
		_, err := h.mgrs[1].Refresh(context.Background())
		h.inj.Disable()
		if err == nil || fdb.IsMaybeCommitted(err) {
			t.Fatalf("round %d: refresh error = %v, want a clean failure", round, err)
		}
		s, ok := h.mgrs[1].Held("t")
		if !ok {
			t.Fatalf("round %d: victim lost its holding entirely", round)
		}
		if h.clock.Now().Before(expiry) {
			// The row is still reserved: the unexpired slice stays in force.
			if math.Abs(s.Txn-half) > sumEps {
				t.Fatalf("round %d (pre-expiry): victim enforces %v, want retained slice %v", round, s.Txn, half)
			}
		} else if math.Abs(s.Txn-floor) > sumEps {
			t.Fatalf("round %d (post-expiry): victim enforces %v, want floor %v", round, s.Txn, floor)
		}
		h.assertInvariants(t, "storm")
	}

	// The healthy peer reclaimed the expired row and grew into the freed
	// budget; the victim sits at the floor.
	if s, _ := h.mgrs[0].Held("t"); s.Txn <= half+sumEps {
		t.Fatalf("survivor slice = %v, want growth past %v after reclaim", s.Txn, half)
	}
}
