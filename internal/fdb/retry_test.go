package fdb

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestRetryLoop drives the background policy (Transact, TransactIdempotent)
// through seeded faults: the attempt budget, ctx cancellation and expiry
// between attempts, and sticky maybe-committed ambiguity.
func TestRetryLoop(t *testing.T) {
	errBoom := errors.New("boom")
	cases := []struct {
		name       string
		cfg        FaultConfig
		idempotent bool
		// ctx builds the run's context; sleep, when set, is Options.Sleep.
		ctx   func() (context.Context, context.CancelFunc)
		sleep func(ctx context.Context) func(time.Duration)
		// body is attempt n's closure body.
		body     func(cancel context.CancelFunc, n int, tr *Transaction) error
		attempts int
		retries  int64
		check    func(t *testing.T, err error)
	}{{
		name: "background budget",
		cfg:  FaultConfig{Seed: 1, PCommitNotCommitted: 1},
		body: func(_ context.CancelFunc, _ int, tr *Transaction) error {
			return tr.Set([]byte("k"), []byte("v"))
		},
		attempts: 101,
		retries:  100,
		check: func(t *testing.T, err error) {
			var rle *RetryLimitError
			if !errors.As(err, &rle) || rle.Attempts != 101 || !IsConflict(err) {
				t.Fatalf("err = %v, want *RetryLimitError after 101 attempts wrapping a conflict", err)
			}
		},
	}, {
		name: "canceled ctx stops before the next attempt",
		cfg:  FaultConfig{Seed: 2, PCommitNotCommitted: 1},
		body: func(cancel context.CancelFunc, _ int, tr *Transaction) error {
			cancel()
			return tr.Set([]byte("k"), []byte("v"))
		},
		attempts: 1,
		retries:  1,
		check: func(t *testing.T, err error) {
			if !errors.Is(err, context.Canceled) || Cause(err) != CauseCanceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		},
	}, {
		name: "expired ctx stops before the next attempt",
		cfg:  FaultConfig{Seed: 3, PCommitNotCommitted: 1},
		ctx: func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 20*time.Millisecond)
		},
		// The backoff outlasts the deadline.
		sleep: func(ctx context.Context) func(time.Duration) {
			return func(time.Duration) { <-ctx.Done() }
		},
		body: func(_ context.CancelFunc, _ int, tr *Transaction) error {
			return tr.Set([]byte("k"), []byte("v"))
		},
		attempts: 1,
		retries:  1,
		check: func(t *testing.T, err error) {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
		},
	}, {
		name:       "idempotent ambiguity is sticky",
		cfg:        FaultConfig{Seed: 4, PCommitUnknown: 1, UnknownNeverApplies: true},
		idempotent: true,
		body: func(_ context.CancelFunc, n int, tr *Transaction) error {
			if n == 2 {
				return errBoom
			}
			return tr.Set([]byte("k"), []byte("v"))
		},
		attempts: 2,
		retries:  1,
		check: func(t *testing.T, err error) {
			var me *MaybeCommittedError
			if !errors.As(err, &me) || me.Attempts != 2 || !errors.Is(err, errBoom) {
				t.Fatalf("err = %v, want *MaybeCommittedError after 2 attempts wrapping boom", err)
			}
		},
	}, {
		name: "plain transact surfaces ambiguity",
		cfg:  FaultConfig{Seed: 5, PCommitUnknown: 1, UnknownNeverApplies: true},
		body: func(_ context.CancelFunc, _ int, tr *Transaction) error {
			return tr.Set([]byte("k"), []byte("v"))
		},
		attempts: 1,
		check: func(t *testing.T, err error) {
			var me *MaybeCommittedError
			if !errors.As(err, &me) || me.Attempts != 1 || !IsMaybeCommitted(err) {
				t.Fatalf("err = %v, want *MaybeCommittedError after 1 attempt", err)
			}
		},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			if c.ctx != nil {
				ctx, cancel = c.ctx()
			}
			defer cancel()
			sleep := func(time.Duration) {}
			if c.sleep != nil {
				sleep = c.sleep(ctx)
			}
			db := Open(&Options{Faults: NewFaultInjector(c.cfg), Sleep: sleep})
			run := db.Transact
			if c.idempotent {
				run = db.TransactIdempotent
			}
			attempts := 0
			_, err := run(ctx, func(_ context.Context, tr *Transaction) (interface{}, error) {
				attempts++
				return nil, c.body(cancel, attempts, tr)
			})
			c.check(t, err)
			if attempts != c.attempts {
				t.Errorf("attempts = %d, want %d", attempts, c.attempts)
			}
			if got := db.Metrics().Retries.Load(); got != c.retries {
				t.Errorf("Metrics().Retries = %d, want %d", got, c.retries)
			}
		})
	}
}
