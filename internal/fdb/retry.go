package fdb

import (
	"context"
	"errors"
	"fmt"
	"time"

	"recordlayer/internal/obs"
)

// TransactFunc is the body of one transactional attempt. The loop commits
// the transaction after the function returns nil (unless the run is
// read-only) and may invoke it several times, so it must be idempotent with
// respect to state outside the transaction.
type TransactFunc func(ctx context.Context, tr *Transaction) (interface{}, error)

// Mode says whether a run commits, and whether it re-runs a maybe-committed
// attempt.
type Mode uint8

const (
	ModeRead       Mode = iota // no commit; read-only work is idempotent
	ModeCommit                 // commit; ambiguity surfaces as *MaybeCommittedError
	ModeIdempotent             // commit; ambiguity is retried on the caller's //rl:idempotent promise
)

// Policy is the schedule a run retries under: MaxAttempts in all, backoff
// from InitialBackoff doubling to MaxBackoff, slept through Sleep (an error
// ends the run as canceled), spans timed by Now. With Jitter set the delay is
// backoff/2 + Jitter()*backoff/2. The Runner builds its policy from
// RunnerOptions; the database's background policy is fixed.
type Policy struct {
	MaxAttempts                int
	InitialBackoff, MaxBackoff time.Duration
	Jitter                     func() float64
	Sleep                      func(ctx context.Context, d time.Duration) error
	Now                        func() time.Time
}

// The background policy: the bindings' transaction_retry_limit of 100
// (101 attempts) and max_retry_delay, with no jitter so seeded runs replay.
const (
	backgroundAttempts   = 101
	backgroundBackoff    = time.Millisecond
	backgroundMaxBackoff = 64 * time.Millisecond
)

// Retry and failure causes, recorded on attempt spans and in the Runner's
// per-cause metrics. Chaos runs use them to attribute which failure mode each
// retry answered.
const (
	CauseConflict       = "conflict"        // not_committed: clean optimistic-concurrency abort
	CauseTooOld         = "too_old"         // transaction_too_old: read version left the MVCC window
	CauseFutureVersion  = "future_version"  // future_version: cluster behind the cached read version
	CauseTimeout        = "timeout"         // transaction_timed_out: 5 s transaction limit
	CauseMaybeCommitted = "maybe_committed" // commit_unknown_result: fate of the commit unknown
	CauseCanceled       = "canceled"        // context canceled or deadline exceeded
	CauseOther          = "other"           // anything else (application errors)
)

// Cause classifies err into one of the Cause labels ("" for nil).
func Cause(err error) string {
	if err == nil {
		return ""
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return CauseCanceled
	}
	var fe *Error
	if errors.As(err, &fe) {
		switch fe.Code {
		case CodeNotCommitted:
			return CauseConflict
		case CodeTransactionTooOld:
			return CauseTooOld
		case CodeFutureVersion:
			return CauseFutureVersion
		case CodeTransactionTimedOut:
			return CauseTimeout
		case CodeCommitUnknownResult:
			return CauseMaybeCommitted
		}
	}
	return CauseOther
}

// RetryLimitError wraps the last retryable error once the attempt budget is
// exhausted. Unwrap exposes the underlying *Error for errors.Is/As.
type RetryLimitError struct {
	Attempts int
	Last     error
}

func (e *RetryLimitError) Error() string {
	return fmt.Sprintf("recordlayer: transaction failed after %d attempts: %v", e.Attempts, e.Last)
}

// Unwrap returns the final attempt's error.
func (e *RetryLimitError) Unwrap() error { return e.Last }

// MaybeCommittedError reports that a run ended with commit_unknown_result
// ambiguity: some attempt's commit may or may not have applied, and the loop
// could not resolve the doubt — the closure made no idempotency promise, or
// the attempt budget (or the context) ran out while the ambiguity persisted.
// Ambiguity is sticky across attempts: once any attempt ends maybe-committed,
// no later clean failure can restore the "nothing was applied" guarantee, so
// the run reports ambiguous no matter how it terminates. The caller must treat
// the write as in-doubt — verify by reading, or re-run only work that is safe
// to apply twice. Unwrap exposes the terminal error.
type MaybeCommittedError struct {
	Attempts int
	Last     error
}

func (e *MaybeCommittedError) Error() string {
	return fmt.Sprintf("recordlayer: commit result unknown after %d attempts (transaction may or may not have applied): %v", e.Attempts, e.Last)
}

// Unwrap returns the final attempt's error.
func (e *MaybeCommittedError) Unwrap() error { return e.Last }

// Outcome is what a run reports besides its value and error, for the
// Runner's counters: retries, their causes (nil when none, so the no-retry
// path allocates nothing), attempts that ended not_committed, and the cause
// of the error returned ("" on success).
type Outcome struct {
	Retries     int64
	RetryCauses map[string]int64
	Conflicts   int
	Cause       string
}

// Transact runs fn under the background policy and commits it; a
// maybe-committed attempt surfaces as *MaybeCommittedError.
func (d *Database) Transact(ctx context.Context, fn TransactFunc) (interface{}, error) {
	v, _, err := d.Retry(ctx, &d.background, nil, ModeCommit, fn)
	return v, err
}

// TransactIdempotent is Transact for closures the caller asserts are
// idempotent: a commit_unknown_result (whose commit may or may not have
// applied) is retried like a clean failure, because re-running and
// re-committing idempotent work converges to the same state either way. Call
// sites carry a reasoned //rl:idempotent directive (enforced by rl-vet's
// idempotent analyzer).
func (d *Database) TransactIdempotent(ctx context.Context, fn TransactFunc) (interface{}, error) {
	v, _, err := d.Retry(ctx, &d.background, nil, ModeIdempotent, fn)
	return v, err
}

// ReadTransact runs fn under the background policy without committing.
func (d *Database) ReadTransact(ctx context.Context, fn TransactFunc) (interface{}, error) {
	v, _, err := d.Retry(ctx, &d.background, nil, ModeRead, fn)
	return v, err
}

// Retry is the retry loop (see the package doc). Each attempt gets a fresh
// transaction with m (when non-nil) as its meter and the ctx's trace
// attached; retryable errors are retried up to p.MaxAttempts, and
// commit_unknown_result only under ModeRead and ModeIdempotent.
func (d *Database) Retry(ctx context.Context, p *Policy, m Meter, mode Mode, fn TransactFunc) (interface{}, Outcome, error) {
	var out Outcome
	trace := obs.FromContext(ctx)
	backoff := p.InitialBackoff
	// ambiguous latches once any attempt ends maybe-committed: a later clean
	// failure cannot un-apply that attempt's possible commit, so every
	// terminal error after it must carry the ambiguity.
	ambiguous := false
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, out, out.fail(attempt-1, err, CauseCanceled, ambiguous)
		}
		tr := d.CreateTransaction()
		if m != nil {
			tr.SetMeter(m)
		}
		var a0 int64
		if trace != nil {
			tr.SetTrace(trace)
			a0 = p.Now().UnixNano()
		}
		v, err := fn(ctx, tr)
		if err == nil && mode != ModeRead {
			err = tr.Commit()
		}
		cause := Cause(err)
		if trace != nil {
			attr := fmt.Sprintf("attempt=%d", attempt)
			if err != nil {
				attr += " cause=" + cause + " err=" + err.Error()
			}
			trace.Add(obs.SpanAttempt, a0, p.Now().UnixNano(), 0, attr)
		}
		if err == nil {
			return v, out, nil
		}
		if cause == CauseConflict {
			out.Conflicts++
		}
		// A maybe-committed attempt is ambiguous, not failed: the commit may
		// be durable. Only an idempotency promise (ModeIdempotent, or
		// read-only work) makes re-running safe.
		maybe := cause == CauseMaybeCommitted
		ambiguous = ambiguous || maybe
		if !IsRetryable(err) && !(maybe && mode != ModeCommit) {
			return nil, out, out.fail(attempt, err, cause, ambiguous)
		}
		if attempt >= p.MaxAttempts {
			if !ambiguous {
				err = &RetryLimitError{Attempts: attempt, Last: err}
			}
			return nil, out, out.fail(attempt, err, cause, ambiguous)
		}
		out.Retries++
		if out.RetryCauses == nil {
			out.RetryCauses = make(map[string]int64, 4)
		}
		out.RetryCauses[cause]++
		d.metrics.Retries.Add(1)
		delay := backoff
		if p.Jitter != nil {
			delay = backoff/2 + time.Duration(p.Jitter()*float64(backoff/2))
		}
		var b0 int64
		if trace != nil {
			b0 = p.Now().UnixNano()
		}
		if serr := p.Sleep(ctx, delay); serr != nil {
			return nil, out, out.fail(attempt, serr, CauseCanceled, ambiguous)
		}
		if trace != nil {
			trace.Add(obs.SpanBackoff, b0, p.Now().UnixNano(), 0,
				fmt.Sprintf("attempt=%d delay=%s cause=%v", attempt, delay, err))
		}
		backoff = min(backoff*2, p.MaxBackoff)
	}
}

// fail records the terminal cause and wraps err in *MaybeCommittedError when
// some attempt's commit may have applied.
func (o *Outcome) fail(attempts int, err error, cause string, ambiguous bool) error {
	o.Cause = cause
	if ambiguous {
		return &MaybeCommittedError{Attempts: attempts, Last: err}
	}
	return err
}
