package recordlayer

import (
	"context"
	"time"

	"recordlayer/internal/cursor"
)

// ExecuteProperties bundles every per-request execution knob of a query or
// scan (§8.2's limit taxonomy): the in-band row limit, the out-of-band
// scanned-records / scanned-bytes limits, a time budget, snapshot isolation,
// and the continuation to resume from. It replaces hand-wiring
// plan.ExecuteOptions with a cursor.Limiter.
//
// All limits are optional; the zero value executes unlimited, non-snapshot,
// from the start. When the context passed to ExecuteQuery carries a
// deadline, the time budget defaults to that deadline, so a query under a
// request deadline halts with a resumable continuation instead of being
// killed mid-flight.
type ExecuteProperties struct {
	// RowLimit stops the stream after this many returned records
	// (ReturnLimitReached); 0 is unlimited.
	RowLimit int
	// Skip discards this many records before returning any (rank-free
	// offset paging).
	Skip int
	// ScanRecordLimit bounds records scanned, counting those filtered out
	// (ScanLimitReached); 0 is unlimited.
	ScanRecordLimit int
	// ScanByteLimit bounds bytes read from the key-value store
	// (ByteLimitReached); 0 is unlimited.
	ScanByteLimit int
	// TimeBudget bounds wall-clock execution time (TimeLimitReached). When
	// zero, the budget is derived from the context deadline, if any; the
	// tighter of the two applies otherwise.
	TimeBudget time.Duration
	// Snapshot executes reads at snapshot isolation: the query adds no read
	// conflict ranges, so it can never abort a concurrent writer.
	Snapshot bool
	// PipelineDepth is how many record fetches an index scan keeps in flight
	// at once (§8's asynchronous pipelining). 0 means DefaultPipelineDepth;
	// 1 fetches sequentially, one round trip per entry. Results are
	// byte-identical to sequential execution (order, halts, continuations);
	// the difference is eagerness: the scan runs up to PipelineDepth entries
	// ahead of the consumer, so a stream abandoned early (e.g. under a small
	// RowLimit) may have scanned, fetched, metered, and added read conflicts
	// for up to PipelineDepth-1 records beyond the last one delivered. Set 1
	// when that footprint matters more than fetch latency. Covering plans
	// never fetch, so the knob does not apply to them.
	PipelineDepth int
	// SlowQueryThreshold marks this execution slow when it runs at least this
	// long from ExecutePlan to the stream's halt; slow executions are captured
	// in the provider's SlowQueries log (ProviderOptions.SlowQueries) with
	// their plan, row count, halt reason, and trace summary. Zero disables the
	// threshold for this execution (the latency histogram still observes it).
	SlowQueryThreshold time.Duration
	// Continuation resumes a previous execution of the same query from
	// where it halted.
	Continuation []byte
	// Clock overrides the time source for the time budget (tests); nil
	// means time.Now.
	Clock func() time.Time
}

// DefaultPipelineDepth is the record-fetch pipelining applied when
// ExecuteProperties.PipelineDepth is zero.
const DefaultPipelineDepth = 8

// pipelineDepth resolves the configured depth, applying the default.
func (p ExecuteProperties) pipelineDepth() int {
	if p.PipelineDepth == 0 {
		return DefaultPipelineDepth
	}
	return p.PipelineDepth
}

// WithContinuation returns a copy that resumes from cont — the idiom for
// paging across transactions:
//
//	props = props.WithContinuation(cur.Continuation())
func (p ExecuteProperties) WithContinuation(cont []byte) ExecuteProperties {
	p.Continuation = cont
	return p
}

// limiter materializes the out-of-band limits as a cursor.Limiter, folding
// the context deadline into the time budget. Returns nil when unlimited.
func (p ExecuteProperties) limiter(ctx context.Context) *cursor.Limiter {
	clock := p.Clock
	if clock == nil {
		clock = time.Now
	}
	var deadline time.Time
	if p.TimeBudget > 0 {
		deadline = clock().Add(p.TimeBudget)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	if p.ScanRecordLimit == 0 && p.ScanByteLimit == 0 && deadline.IsZero() {
		return nil
	}
	return cursor.NewLimiter(p.ScanRecordLimit, p.ScanByteLimit, deadline, clock)
}
