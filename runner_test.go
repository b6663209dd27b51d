package recordlayer

import (
	"context"
	"errors"
	"testing"
	"time"

	"recordlayer/internal/fdb"
)

// instantSleep skips backoff delays but still honors cancellation.
func instantSleep(ctx context.Context, d time.Duration) error {
	return ctx.Err()
}

func conflictErr() error {
	return &fdb.Error{Code: fdb.CodeNotCommitted, Msg: "injected conflict"}
}

// TestRunnerRetriesConflict injects a real commit conflict on the first
// attempt and checks the closure is retried to success with Retries counted.
func TestRunnerRetriesConflict(t *testing.T) {
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{Sleep: instantSleep})
	attempts := 0
	v, err := r.Run(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		attempts++
		// Read k so the transaction carries a read conflict range.
		if _, err := tr.Get([]byte("k")); err != nil {
			return nil, err
		}
		if attempts == 1 {
			// A concurrent writer commits to k before we do.
			if _, err := db.Transact(context.Background(), func(_ context.Context, w *fdb.Transaction) (interface{}, error) {
				return nil, w.Set([]byte("k"), []byte("other"))
			}); err != nil {
				return nil, err
			}
		}
		if err := tr.Set([]byte("mine"), []byte("v")); err != nil {
			return nil, err
		}
		return attempts, nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if v.(int) != 2 || attempts != 2 {
		t.Fatalf("expected success on attempt 2, got %d", attempts)
	}
	m := r.Metrics()
	if m.Retries != 1 || m.Runs != 1 || m.Failures != 0 {
		t.Fatalf("metrics = %+v, want 1 retry / 1 run / 0 failures", m)
	}
}

// TestRunnerNonRetryable checks that an application error is returned
// immediately without re-running the closure.
func TestRunnerNonRetryable(t *testing.T) {
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{Sleep: instantSleep})
	boom := errors.New("boom")
	attempts := 0
	_, err := r.Run(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		attempts++
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (no retry)", attempts)
	}
	if m := r.Metrics(); m.Failures != 1 || m.Retries != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestRunnerContextCancelled cancels the context mid-loop (from inside the
// backoff sleep) and checks the loop exits with ctx.Err().
func TestRunnerContextCancelled(t *testing.T) {
	db := fdb.Open(nil)
	ctx, cancel := context.WithCancel(context.Background())
	r := NewRunner(db, RunnerOptions{
		Sleep: func(ctx context.Context, d time.Duration) error {
			cancel() // cancellation arrives while backing off
			return ctx.Err()
		},
	})
	attempts := 0
	_, err := r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		attempts++
		return nil, conflictErr()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1", attempts)
	}
}

// TestRunnerRetryLimit checks the attempt budget: a persistently retryable
// error surfaces as RetryLimitError wrapping the underlying conflict.
func TestRunnerRetryLimit(t *testing.T) {
	db := fdb.Open(nil)
	r := NewRunner(db, RunnerOptions{MaxAttempts: 3, Sleep: instantSleep})
	attempts := 0
	_, err := r.Run(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		attempts++
		return nil, conflictErr()
	})
	var rle *RetryLimitError
	if !errors.As(err, &rle) {
		t.Fatalf("err = %v, want RetryLimitError", err)
	}
	if rle.Attempts != 3 || attempts != 3 {
		t.Fatalf("attempts = %d / %d, want 3", rle.Attempts, attempts)
	}
	if !fdb.IsConflict(err) {
		t.Fatalf("RetryLimitError should unwrap to the conflict, got %v", err)
	}
	if m := r.Metrics(); m.Retries != 2 || m.Failures != 1 {
		t.Fatalf("metrics = %+v, want 2 retries / 1 failure", m)
	}
}

// TestRunnerBackoffProgression checks exponential growth and the cap.
func TestRunnerBackoffProgression(t *testing.T) {
	db := fdb.Open(nil)
	var delays []time.Duration
	r := NewRunner(db, RunnerOptions{
		MaxAttempts:    6,
		InitialBackoff: 2 * time.Millisecond,
		MaxBackoff:     8 * time.Millisecond,
		Rand:           func() float64 { return 0 }, // no jitter: delay = backoff/2
		Sleep: func(ctx context.Context, d time.Duration) error {
			delays = append(delays, d)
			return nil
		},
	})
	_, err := r.Run(context.Background(), func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		return nil, conflictErr()
	})
	var rle *RetryLimitError
	if !errors.As(err, &rle) {
		t.Fatalf("err = %v", err)
	}
	want := []time.Duration{1, 2, 4, 4, 4} // ms: backoff 2,4,8 then capped at 8
	if len(delays) != len(want) {
		t.Fatalf("delays = %v", delays)
	}
	for i, w := range want {
		if delays[i] != w*time.Millisecond {
			t.Fatalf("delay[%d] = %v, want %v (all: %v)", i, delays[i], w*time.Millisecond, delays)
		}
	}
}
