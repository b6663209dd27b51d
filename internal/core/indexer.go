package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/metadata"
	"recordlayer/internal/obs"
	"recordlayer/internal/resource"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// OnlineIndexer builds or rebuilds an index in the background (§6): the
// index starts write-only (maintained by concurrent writes but not
// readable), the builder scans the records in batches across multiple
// transactions — bounding conflicts and transaction size — and the index
// becomes readable when the scan completes. Progress persists in the store,
// so a crashed build resumes where it stopped.
//
// Online building requires an idempotent index type (VALUE, VERSION, RANK,
// TEXT): a record saved concurrently during the build may be processed both
// by its own write and by the builder. Atomic aggregate indexes are not
// idempotent; rebuild those with Store.RebuildIndexInline.
type OnlineIndexer struct {
	DB        *fdb.Database
	MetaData  *metadata.MetaData
	Space     subspace.Subspace
	IndexName string
	// BatchSize is the number of records indexed per transaction (default 64).
	BatchSize int
	Config    Config
	// Pace, when set, runs between batches — a throttling hook: sleep to
	// bound the build's cluster load, or consult a resource Governor
	// (PaceFromGovernor). Returning an error (e.g. ctx.Err()) stops the
	// build like a cancellation. Progress stays persisted either way.
	Pace func(ctx context.Context) error
}

// PaceFromGovernor adapts a resource.Governor into an OnlineIndexer.Pace
// hook: each batch boundary acquires — and immediately releases — a
// background-priority admission on tenant's behalf, so the build waits
// whenever foreground traffic is queued for capacity and backs off for
// RetryAfter whenever the tenant is over a rate or byte quota. The build
// therefore consumes only capacity the interactive workload is not using.
func PaceFromGovernor(g *resource.Governor, tenant string) func(context.Context) error {
	return func(ctx context.Context) error {
		bctx := resource.WithPriority(ctx, resource.PriorityBackground)
		for {
			release, err := g.Admit(bctx, tenant)
			if err == nil {
				release()
				return nil
			}
			var qe *resource.QuotaExceededError
			if !errors.As(err, &qe) {
				return err
			}
			t := time.NewTimer(qe.RetryAfter)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
	}
}

func idempotentType(t metadata.IndexType) bool {
	switch t {
	case metadata.IndexValue, metadata.IndexVersion, metadata.IndexRank, metadata.IndexText:
		return true
	}
	return false
}

// Build runs the full build: write-only transition, batched scan, readable
// transition. It returns the number of records indexed.
//
// The context is checked between batches, so a background build honors
// cancellation and deadlines promptly without losing progress: the batch
// boundary is durable, and a later Build resumes from it (the index stays
// write-only until a build completes).
//
// A trace bound to ctx (obs.WithTrace) is attached to every build
// transaction, so each batch records an indexer.batch span (scan, issue,
// resolve — with the batch limit and records indexed in its attr) alongside
// its attempt spans and the underlying read windows.
func (o *OnlineIndexer) Build(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	ix, ok := o.MetaData.Index(o.IndexName)
	if !ok {
		return 0, fmt.Errorf("core: no index %q", o.IndexName)
	}
	if !idempotentType(ix.Type) {
		return 0, fmt.Errorf("core: index %q has non-idempotent type %s; use RebuildIndexInline", ix.Name, ix.Type)
	}
	batch := o.BatchSize
	if batch <= 0 {
		batch = 64
	}
	// Phase 1: clear any stale data and enter write-only (§6).
	//rl:idempotent clear-then-mark-write-only converges: re-running after a maybe-committed attempt re-clears and re-marks the same state
	_, err := o.DB.TransactIdempotent(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := Open(tr, o.MetaData, o.Space, OpenOptions{Config: o.Config})
		if err != nil {
			return nil, err
		}
		if s.IndexState(o.IndexName) != metadata.StateWriteOnly {
			if err := s.clearIndexData(o.IndexName); err != nil {
				return nil, err
			}
			if err := s.MarkIndexWriteOnly(o.IndexName); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		return 0, err
	}

	// Phase 2: batched scan, one transaction per batch. Cancellation is
	// honored at every batch boundary; progress persists across it.
	total := 0
	for {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		n, done, err := o.buildBatch(ctx, batch)
		if err != nil {
			return total, err
		}
		total += n
		if done {
			break
		}
		if o.Pace != nil {
			if err := o.Pace(ctx); err != nil {
				return total, err
			}
		}
	}

	// Phase 3: mark readable and clear progress.
	//rl:idempotent clearing the progress key and marking readable applies the same end state however many times it commits
	_, err = o.DB.TransactIdempotent(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := Open(tr, o.MetaData, o.Space, OpenOptions{Config: o.Config})
		if err != nil {
			return nil, err
		}
		if err := tr.Clear(s.space.Pack(tuple.Tuple{progressSub, o.IndexName})); err != nil {
			return nil, err
		}
		return nil, s.MarkIndexReadable(o.IndexName)
	})
	return total, err
}

// buildBatch indexes up to batch records, resuming from stored progress.
// Batches are idempotent by construction — Build refuses non-idempotent index
// types — so a batch whose commit fate is unknown is simply re-run: if the
// first commit applied, the rerun rewrites identical index entries and the
// same progress key.
func (o *OnlineIndexer) buildBatch(ctx context.Context, batch int) (int, bool, error) {
	//rl:idempotent Build only accepts idempotent index types; re-indexing a batch and rewriting its progress key converges
	v, err := o.DB.TransactIdempotent(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := Open(tr, o.MetaData, o.Space, OpenOptions{Config: o.Config})
		if err != nil {
			return nil, err
		}
		ix, _ := s.md.Index(o.IndexName)
		m, err := s.maintainer(ix)
		if err != nil {
			return nil, err
		}
		ictx := s.indexContext(ix)
		progressKey := s.space.Pack(tuple.Tuple{progressSub, o.IndexName})
		cont, err := s.tr.Get(progressKey)
		if err != nil {
			return nil, err
		}
		var t0 int64
		if s.trace != nil {
			t0 = s.tr.LatencyNow()
		}
		// Issue every record's index update without awaiting, then resolve
		// them together: the batch's probe reads share one latency window
		// instead of paying one per record.
		scan := s.ScanRecords(ScanOptions{Continuation: cont})
		n, indexed := 0, 0
		exhausted := false
		var lastCont []byte
		var pendings []index.Pending
		for n < batch {
			r, err := scan.Next()
			if err != nil {
				return nil, err
			}
			if !r.OK {
				if r.Reason != cursor.SourceExhausted {
					return nil, fmt.Errorf("core: index build scan halted: %v", r.Reason)
				}
				exhausted = true
				break
			}
			if ix.AppliesTo(r.Value.Type.Name) {
				p, err := m.UpdateAsync(ictx, nil, r.Value.asIndexRecord())
				if err != nil {
					return nil, err
				}
				pendings = append(pendings, p)
				indexed++
			}
			lastCont = r.Continuation
			n++
		}
		for _, p := range pendings {
			if err := p.Await(); err != nil {
				return nil, err
			}
		}
		if s.trace != nil {
			s.trace.Add(obs.SpanIndexerBatch, t0, s.tr.LatencyNow(), 0,
				fmt.Sprintf("batch=%d records=%d", batch, indexed))
		}
		if exhausted {
			return [2]int{n, 1}, nil
		}
		if err := tr.Set(progressKey, lastCont); err != nil {
			return nil, err
		}
		return [2]int{n, 0}, nil
	})
	if err != nil {
		return 0, false, err
	}
	res := v.([2]int)
	return res[0], res[1] == 1, nil
}
