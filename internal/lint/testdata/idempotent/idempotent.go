// Fixture for the idempotent analyzer. Type-checked by linttest under a
// pretend import path; never built into the module.
package fixture

import (
	"context"

	"recordlayer"
	"recordlayer/internal/fdb"
)

// unjustifiedRun: RunIdempotent with no directive anywhere near it.
func unjustifiedRun(ctx context.Context, r *recordlayer.Runner) {
	r.RunIdempotent(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) { // want "justify it with //rl:idempotent"
		return nil, tr.Set([]byte("k"), []byte("v"))
	})
}

// unjustifiedTransact: the same hazard through the lower-level database call.
func unjustifiedTransact(ctx context.Context, db *fdb.Database) {
	db.TransactIdempotent(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) { // want "justify it with //rl:idempotent"
		return nil, tr.Set([]byte("k"), []byte("v"))
	})
}

// bareDirective: a directive with no reason is not a justification.
func bareDirective(ctx context.Context, r *recordlayer.Runner) {
	//rl:idempotent
	r.RunIdempotent(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) { // want "carries no reason"
		return nil, tr.Set([]byte("k"), []byte("v"))
	})
}

// justifiedAbove: a reasoned directive on the line above passes.
func justifiedAbove(ctx context.Context, r *recordlayer.Runner) {
	//rl:idempotent blind overwrite of a fixed key converges on re-run
	r.RunIdempotent(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		return nil, tr.Set([]byte("k"), []byte("v"))
	})
}

// justifiedTrailing: a reasoned directive on the call line passes.
func justifiedTrailing(ctx context.Context, db *fdb.Database) {
	db.TransactIdempotent(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) { //rl:idempotent blind overwrite of a fixed key converges on re-run
		return nil, tr.Set([]byte("k"), []byte("v"))
	})
}

// plainRun: the non-idempotent entry points need no directive — the runner
// surfaces maybe-committed to the caller instead of retrying.
func plainRun(ctx context.Context, r *recordlayer.Runner, db *fdb.Database) {
	r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		return nil, tr.Set([]byte("k"), []byte("v"))
	})
	db.Transact(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		return nil, tr.Set([]byte("k"), []byte("v"))
	})
}

// loopDirect: handing fdb.ModeIdempotent to the retry loop directly makes the
// same promise and needs the same justification.
func loopDirect(ctx context.Context, db *fdb.Database, p *fdb.Policy) {
	db.Retry(ctx, p, nil, fdb.ModeIdempotent, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) { // want "fdb.ModeIdempotent retries maybe-committed"
		return nil, tr.Set([]byte("k"), []byte("v"))
	})
	//rl:idempotent blind overwrite of a fixed key converges on re-run
	db.Retry(ctx, p, nil, fdb.ModeIdempotent, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		return nil, tr.Set([]byte("k"), []byte("v"))
	})
}
