package recordlayer

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"recordlayer/internal/fdb"
	"recordlayer/internal/obs"
	"recordlayer/internal/resource"
)

// TransactFunc is the body of one transactional attempt. The transaction is
// committed after the function returns nil (for Run; ReadRun never commits).
// The function may be invoked several times, so it must be idempotent with
// respect to out-of-transaction state.
type TransactFunc = fdb.TransactFunc

// RunnerOptions tunes the retry loop. The zero value gives sensible
// production defaults.
type RunnerOptions struct {
	// MaxAttempts caps total attempts (first try plus retries); default 10.
	MaxAttempts int
	// InitialBackoff is the delay before the first retry; default 2ms.
	InitialBackoff time.Duration
	// MaxBackoff caps the exponentially growing delay; default 250ms.
	MaxBackoff time.Duration
	// Rand supplies jitter in [0,1); default math/rand. The delay before
	// retry n is backoff/2 + Rand()*backoff/2 (decorrelated half-jitter).
	Rand func() float64
	// Sleep waits between attempts and must honor ctx cancellation; tests
	// inject an instant version. The default uses a timer.
	Sleep func(ctx context.Context, d time.Duration) error
	// Now supplies wall-clock readings for transaction-latency accounting
	// (Usage.TxnTime) and the runner's trace spans; tests inject a manual
	// clock so span assertions are exact. Defaults to time.Now.
	Now func() time.Time
	// Governor enforces per-tenant admission control: when the context
	// carries a tenant (WithTenant), each Run/ReadRun acquires admission
	// before its first attempt — failing fast with *QuotaExceededError when
	// the tenant is over its rate quota, waiting (weighted-fair) when the
	// tenant or cluster is at its concurrency ceiling. Nil disables
	// admission control.
	Governor *resource.Governor
	// Accountant meters per-tenant usage for tenant-bound contexts: the
	// runner records transaction latency and conflicts, and binds the
	// tenant's meter to every attempt's transaction, which charges it for
	// each read and write it performs. Nil falls back to the Governor's accountant;
	// if both are nil, metering is off.
	Accountant *resource.Accountant
}

func (o RunnerOptions) withDefaults() RunnerOptions {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 10
	}
	if o.InitialBackoff <= 0 {
		o.InitialBackoff = 2 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 250 * time.Millisecond
	}
	if o.Rand == nil {
		o.Rand = rand.Float64
	}
	if o.Sleep == nil {
		o.Sleep = sleepCtx
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Accountant == nil && o.Governor != nil {
		o.Accountant = o.Governor.Accountant()
	}
	return o
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// RunnerMetrics is a point-in-time snapshot of a Runner's counters. Counters
// fold in once per *completed* execution under one lock, so a snapshot is
// always internally consistent — it can never show an execution's retries
// without the run (or failure) they belonged to.
type RunnerMetrics struct {
	// Runs counts completed successful executions (Run + ReadRun).
	Runs int64
	// Retries counts re-executions after retryable errors, recorded when
	// their execution completes.
	Retries int64
	// Failures counts executions that returned an error to the caller.
	Failures int64
	// RetriesByCause breaks Retries down by the classified cause of the
	// attempt error that triggered each retry (see retry causes below). Nil
	// until the first retry.
	RetriesByCause map[string]int64
	// FailuresByCause breaks Failures down by the classified cause of the
	// error returned to the caller. Nil until the first failure.
	FailuresByCause map[string]int64
}

// Retry/failure cause labels recorded in RunnerMetrics and on attempt spans.
// The retry loop classifies attempt errors (fdb.Cause); the quota cause is
// the Runner's own, for admission rejections.
const (
	CauseConflict       = fdb.CauseConflict
	CauseTooOld         = fdb.CauseTooOld
	CauseFutureVersion  = fdb.CauseFutureVersion
	CauseTimeout        = fdb.CauseTimeout
	CauseQuota          = "quota" // admission rejected over tenant quota
	CauseMaybeCommitted = fdb.CauseMaybeCommitted
	CauseCanceled       = fdb.CauseCanceled
	CauseOther          = fdb.CauseOther
)

// RetryLimitError wraps the last retryable error once the attempt budget is
// exhausted. Unwrap exposes the underlying *fdb.Error for errors.Is/As.
type RetryLimitError = fdb.RetryLimitError

// MaybeCommittedError reports that an execution ended with
// commit_unknown_result ambiguity; see fdb.MaybeCommittedError.
type MaybeCommittedError = fdb.MaybeCommittedError

// IsMaybeCommitted reports whether err carries commit-unknown-result
// ambiguity — either the typed MaybeCommittedError or a raw fdb
// commit_unknown_result.
func IsMaybeCommitted(err error) bool { return fdb.IsMaybeCommitted(err) }

// Runner executes transactional closures against a database with the
// standard Record Layer retry loop (§5): bounded attempts, exponential
// backoff with jitter on retryable errors (conflicts, stale read versions,
// timeouts), and context cancellation and deadline propagation. A Runner is
// safe for concurrent use; one per database is typical.
type Runner struct {
	db     *fdb.Database
	opts   RunnerOptions
	policy fdb.Policy

	mu sync.Mutex
	m  RunnerMetrics
}

// NewRunner creates a runner over db. A zero RunnerOptions uses defaults.
func NewRunner(db *fdb.Database, opts RunnerOptions) *Runner {
	o := opts.withDefaults()
	return &Runner{db: db, opts: o, policy: fdb.Policy{
		MaxAttempts:    o.MaxAttempts,
		InitialBackoff: o.InitialBackoff,
		MaxBackoff:     o.MaxBackoff,
		Jitter:         o.Rand,
		Sleep:          o.Sleep,
		Now:            o.Now,
	}}
}

// Metrics returns a single atomically-assembled snapshot of the runner's
// counters: the read happens under the same lock every completed execution
// updates under, so concurrent Run calls can never tear it. The per-cause
// maps are deep-copied, so the snapshot stays stable after release.
func (r *Runner) Metrics() RunnerMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.m
	m.RetriesByCause = copyCauses(r.m.RetriesByCause)
	m.FailuresByCause = copyCauses(r.m.FailuresByCause)
	return m
}

func copyCauses(src map[string]int64) map[string]int64 {
	if src == nil {
		return nil
	}
	out := make(map[string]int64, len(src))
	for c, n := range src {
		out[c] = n
	}
	return out
}

// record folds one completed execution into the counters as one atomic
// update; the no-retry success path stays allocation-free.
func (r *Runner) record(out fdb.Outcome, ok bool) {
	r.mu.Lock()
	if ok {
		r.m.Runs++
	} else {
		r.m.Failures++
		if r.m.FailuresByCause == nil {
			r.m.FailuresByCause = make(map[string]int64)
		}
		r.m.FailuresByCause[out.Cause]++
	}
	r.m.Retries += out.Retries
	if len(out.RetryCauses) > 0 {
		if r.m.RetriesByCause == nil {
			r.m.RetriesByCause = make(map[string]int64)
		}
		for c, n := range out.RetryCauses {
			r.m.RetriesByCause[c] += n
		}
	}
	r.mu.Unlock()
}

// Run executes fn transactionally: fn is retried on retryable errors and its
// writes are committed after it returns nil. The context is checked before
// every attempt and during backoff, so cancellation and deadlines interrupt
// the loop promptly with ctx.Err().
func (r *Runner) Run(ctx context.Context, fn TransactFunc) (interface{}, error) {
	return r.run(ctx, fn, fdb.ModeCommit)
}

// RunIdempotent is Run for a closure the caller asserts is idempotent: a
// commit_unknown_result attempt (whose commit may or may not have applied) is
// retried like a clean failure, because committing idempotent work a second
// time converges to the same state. Callers that cannot make that promise
// must use Run, which surfaces the ambiguity as *MaybeCommittedError. Call
// sites carry a reasoned //rl:idempotent directive (enforced by rl-vet's
// idempotent analyzer).
func (r *Runner) RunIdempotent(ctx context.Context, fn TransactFunc) (interface{}, error) {
	//rl:idempotent the promise is the caller's: every RunIdempotent call site carries its own reasoned directive
	return r.run(ctx, fn, fdb.ModeIdempotent)
}

// ReadRun executes fn as a read-only transaction: same retry semantics as
// Run, but nothing is committed. Read-only work is inherently idempotent, so
// maybe-committed ambiguity (which only commits can produce) never reaches
// the caller.
func (r *Runner) ReadRun(ctx context.Context, fn TransactFunc) (interface{}, error) {
	return r.run(ctx, fn, fdb.ModeRead)
}

// run wraps the retry loop (fdb.Database.Retry) with what the façade adds:
// tenant admission, the tenant meter bound to every attempt, and this
// runner's metrics.
func (r *Runner) run(ctx context.Context, fn TransactFunc, mode fdb.Mode) (interface{}, error) {
	// The latency clock starts before admission: Usage.TxnTime documents
	// end-to-end latency including retries and backoff, and the queue wait a
	// throttled tenant experiences is exactly the signal the governor's
	// accounting must not hide. The admission trace span uses the same clock
	// readings, so span duration and TxnTime queue wait agree exactly.
	start := r.opts.Now()
	var meter *resource.Meter
	var bound fdb.Meter // nil unless meter is: a typed nil would bind
	if tenant, ok := resource.TenantFrom(ctx); ok {
		if r.opts.Accountant != nil {
			meter = r.opts.Accountant.Tenant(tenant)
			bound = meter
		}
		if r.opts.Governor != nil {
			// One admission covers the whole retry loop: a retried attempt
			// is the same unit of tenant work, not a new request. The
			// admission's priority class rides the context (WithPriority).
			release, err := r.opts.Governor.Admit(ctx, tenant)
			if trace := obs.FromContext(ctx); trace != nil {
				attr := ""
				if err != nil {
					attr = err.Error()
				}
				trace.Add(obs.SpanAdmit, start.UnixNano(), r.opts.Now().UnixNano(), 0, attr)
			}
			if err != nil {
				cause := CauseQuota
				var qe *resource.QuotaExceededError
				if !errors.As(err, &qe) {
					cause = fdb.Cause(err)
				}
				r.record(fdb.Outcome{Cause: cause}, false)
				return nil, err
			}
			defer release()
		}
	}
	v, out, err := r.db.Retry(ctx, &r.policy, bound, mode, fn)
	for i := 0; i < out.Conflicts; i++ {
		meter.RecordConflict()
	}
	r.record(out, err == nil)
	if err != nil {
		return nil, err
	}
	meter.RecordTxn(r.opts.Now().Sub(start))
	return v, nil
}

// IsRetryable reports whether err is an error the runner would retry (a
// FoundationDB conflict, stale read version, or transaction timeout).
func IsRetryable(err error) bool { return fdb.IsRetryable(err) }
