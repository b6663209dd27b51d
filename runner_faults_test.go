package recordlayer

import (
	"context"
	"errors"
	"testing"
	"time"

	"recordlayer/internal/fdb"
)

func unknownErr() error {
	return &fdb.Error{Code: fdb.CodeCommitUnknownResult, Msg: "injected unknown result"}
}

// TestRunSurfacesMaybeCommitted: without an idempotency promise, a
// commit_unknown_result attempt must reach the caller as a typed
// MaybeCommittedError after exactly one attempt — blind retry could
// double-apply.
func TestRunSurfacesMaybeCommitted(t *testing.T) {
	inj := fdb.NewFaultInjector(fdb.FaultConfig{Seed: 1, PCommitUnknown: 1, PUnknownApplied: 1})
	db := fdb.Open(&fdb.Options{Faults: inj, Sleep: func(time.Duration) {}})
	r := NewRunner(db, RunnerOptions{Sleep: instantSleep})
	attempts := 0
	_, err := r.Run(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		attempts++
		return nil, tr.Set([]byte("k"), []byte("v"))
	})
	var me *MaybeCommittedError
	if !errors.As(err, &me) {
		t.Fatalf("err = %v, want *MaybeCommittedError", err)
	}
	if me.Attempts != 1 || attempts != 1 {
		t.Fatalf("attempts = %d (error says %d), want exactly 1", attempts, me.Attempts)
	}
	if !IsMaybeCommitted(err) {
		t.Error("IsMaybeCommitted must recognize the typed error")
	}
	if !fdb.IsMaybeCommitted(errors.Unwrap(me)) {
		t.Errorf("Unwrap = %v, want the raw commit_unknown_result", me.Last)
	}
	// The ambiguity was real: the injector applied the commit.
	inj.Disable()
	v, rerr := r.ReadRun(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		return tr.Get([]byte("k"))
	})
	if rerr != nil || v.([]byte) == nil {
		t.Fatalf("maybe-committed write should be durable here (v=%v err=%v)", v, rerr)
	}
	m := r.Metrics()
	if m.Failures != 1 || m.FailuresByCause[CauseMaybeCommitted] != 1 {
		t.Fatalf("metrics = %+v, want 1 maybe_committed failure", m)
	}
}

// TestRunIdempotentRetriesMaybeCommitted: the per-call idempotency promise
// turns the ambiguous failure into a retry, and the retry cause is recorded.
func TestRunIdempotentRetriesMaybeCommitted(t *testing.T) {
	inj := fdb.NewFaultInjector(fdb.FaultConfig{Seed: 2, PCommitUnknown: 1, UnknownNeverApplies: true})
	db := fdb.Open(&fdb.Options{Faults: inj, Sleep: func(time.Duration) {}})
	r := NewRunner(db, RunnerOptions{Sleep: instantSleep})
	attempts := 0
	//rl:idempotent test closure blind-writes a constant; re-running converges
	v, err := r.RunIdempotent(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		attempts++
		if attempts == 2 {
			inj.Disable() // let the retry's commit through
		}
		return "ok", tr.Set([]byte("k"), []byte("v"))
	})
	if err != nil || v != "ok" {
		t.Fatalf("RunIdempotent = (%v, %v), want (ok, nil)", v, err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
	m := r.Metrics()
	if m.Runs != 1 || m.Retries != 1 || m.RetriesByCause[CauseMaybeCommitted] != 1 {
		t.Fatalf("metrics = %+v, want 1 run with 1 maybe_committed retry", m)
	}
}

// TestStickyAmbiguityAtRetryLimit: once any attempt ends maybe-committed, a
// later clean exhaustion of the attempt budget must still report
// MaybeCommittedError — a clean conflict on attempt 3 cannot un-apply
// attempt 1's possible commit.
func TestStickyAmbiguityAtRetryLimit(t *testing.T) {
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{MaxAttempts: 3, Sleep: instantSleep})
	attempts := 0
	//rl:idempotent test closure returns synthetic errors; nothing is ever committed
	_, err := r.RunIdempotent(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		attempts++
		if attempts == 1 {
			return nil, unknownErr()
		}
		return nil, conflictErr()
	})
	var me *MaybeCommittedError
	if !errors.As(err, &me) {
		t.Fatalf("err = %v, want *MaybeCommittedError (ambiguity is sticky)", err)
	}
	var rle *RetryLimitError
	if errors.As(err, &rle) {
		t.Fatal("a sticky-ambiguous exhaustion must not read as a plain retry-limit failure")
	}
	if me.Attempts != 3 || attempts != 3 {
		t.Fatalf("attempts = %d (error says %d), want 3", attempts, me.Attempts)
	}
	if !fdb.IsConflict(me.Last) {
		t.Errorf("Last = %v, want the terminal conflict", me.Last)
	}
}

// TestStickyAmbiguityOnNonRetryable: an application error after a
// maybe-committed attempt also surfaces as MaybeCommittedError.
func TestStickyAmbiguityOnNonRetryable(t *testing.T) {
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{Sleep: instantSleep})
	appErr := errors.New("application says no")
	attempts := 0
	//rl:idempotent test closure returns synthetic errors; nothing is ever committed
	_, err := r.RunIdempotent(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		attempts++
		if attempts == 1 {
			return nil, unknownErr()
		}
		return nil, appErr
	})
	var me *MaybeCommittedError
	if !errors.As(err, &me) {
		t.Fatalf("err = %v, want *MaybeCommittedError", err)
	}
	if !errors.Is(err, appErr) {
		t.Error("the terminal application error must stay reachable via errors.Is")
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
}

// TestNoAmbiguityWithoutUnknown: a plain retry-limit exhaustion with no
// maybe-committed attempt anywhere keeps the RetryLimitError type.
func TestNoAmbiguityWithoutUnknown(t *testing.T) {
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{MaxAttempts: 2, Sleep: instantSleep})
	_, err := r.Run(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		return nil, conflictErr()
	})
	var rle *RetryLimitError
	if !errors.As(err, &rle) {
		t.Fatalf("err = %v, want *RetryLimitError", err)
	}
	if IsMaybeCommitted(err) {
		t.Error("a cleanly-failed execution must not read as maybe-committed")
	}
}

// TestRunnerCauseBreakdown: retry and failure causes are classified and
// accumulated per label.
func TestRunnerCauseBreakdown(t *testing.T) {
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{MaxAttempts: 4, Sleep: instantSleep})
	attempts := 0
	_, err := r.Run(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		attempts++
		switch attempts {
		case 1:
			return nil, conflictErr()
		case 2:
			return nil, &fdb.Error{Code: fdb.CodeTransactionTooOld, Msg: "injected"}
		case 3:
			return nil, &fdb.Error{Code: fdb.CodeFutureVersion, Msg: "injected"}
		}
		return nil, tr.Set([]byte("k"), []byte("v"))
	})
	if err != nil {
		t.Fatal(err)
	}
	m := r.Metrics()
	want := map[string]int64{CauseConflict: 1, CauseTooOld: 1, CauseFutureVersion: 1}
	for cause, n := range want {
		if m.RetriesByCause[cause] != n {
			t.Errorf("RetriesByCause[%s] = %d, want %d (all: %v)", cause, m.RetriesByCause[cause], n, m.RetriesByCause)
		}
	}
	if m.Retries != 3 {
		t.Errorf("Retries = %d, want 3", m.Retries)
	}

	// A terminal application failure lands in FailuresByCause under "other".
	if _, err := r.Run(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		return nil, errors.New("boom")
	}); err == nil {
		t.Fatal("expected failure")
	}
	if m := r.Metrics(); m.FailuresByCause[CauseOther] != 1 {
		t.Errorf("FailuresByCause = %v, want other:1", m.FailuresByCause)
	}
}
