package recordlayer

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"recordlayer/internal/core"
	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyspace"
	"recordlayer/internal/metadata"
	"recordlayer/internal/obs"
	"recordlayer/internal/plan"
	"recordlayer/internal/query"
	"recordlayer/internal/resource"
)

// Record is a stored record: the decoded message plus its identity and the
// commit version of its last modification.
type Record = core.StoredRecord

// Query is a declarative record query; build filters with the
// internal/query combinators.
type Query = query.RecordQuery

// ProviderOptions configures a StoreProvider.
type ProviderOptions struct {
	// Config customizes the record stores the provider opens (serializer,
	// split chunk size, inline index build limit).
	Config core.Config
	// Planner tunes query planning for ExecuteQuery.
	Planner plan.Config
	// PlanCacheSize bounds the shared LRU plan cache (default 128).
	PlanCacheSize int
	// Accountant meters per-tenant store traffic. When the transaction has
	// no meter bound (i.e. the Runner has none), Open derives the tenant ID
	// from the keyspace path values and binds that tenant's meter from this
	// accountant. Nil leaves such requests unmetered.
	Accountant *resource.Accountant
	// SlowQueries, when set, observes every query execution's latency into
	// its histogram and captures structured summaries of executions over
	// their ExecuteProperties.SlowQueryThreshold. Nil (the default) disables
	// collection at zero cost on the execution path.
	SlowQueries *obs.SlowQueryLog
}

// StoreProvider binds a schema, a store configuration, and a keyspace path
// template so that a tenant's record store opens in one call — the paper's
// multi-tenant routing (§5): the provider is created once per (schema,
// keyspace) pair, and every request supplies only the transaction and the
// tenant-identifying path values.
type StoreProvider struct {
	md       *metadata.MetaData
	ks       *keyspace.KeySpace
	template []string
	opts     ProviderOptions

	planner *plan.Planner
	plans   *PlanCache
	states  *core.StoreStateCache
}

// NewStoreProvider creates a provider. template names the keyspace
// directories from the root down to the directory holding each record store;
// Open consumes one tenant value per variable directory in the template.
func NewStoreProvider(md *metadata.MetaData, ks *keyspace.KeySpace, template []string, opts ProviderOptions) (*StoreProvider, error) {
	if md == nil {
		return nil, fmt.Errorf("recordlayer: provider requires metadata")
	}
	if ks == nil || len(template) == 0 {
		return nil, fmt.Errorf("recordlayer: provider requires a keyspace path template")
	}
	return &StoreProvider{
		md:       md,
		ks:       ks,
		template: template,
		opts:     opts,
		planner:  plan.New(md, opts.Planner),
		plans:    NewPlanCache(opts.PlanCacheSize),
		states:   core.NewStoreStateCache(),
	}, nil
}

// MetaData returns the schema the provider opens stores with.
func (p *StoreProvider) MetaData() *metadata.MetaData { return p.md }

// PlanCacheStats reports the shared plan cache's counters.
func (p *StoreProvider) PlanCacheStats() PlanCacheStats { return p.plans.Stats() }

// StoreStateCacheStats holds the counters of a provider's store-state cache
// (see doc.go, "Store-state cache").
type StoreStateCacheStats = core.StoreStateCacheStats

// StoreStateCacheStats reports the provider's store-state cache counters:
// opens served with no read (hits), opens that read the header and index
// states (misses), and entries dropped because some store's state changed
// (invalidations).
func (p *StoreProvider) StoreStateCacheStats() StoreStateCacheStats { return p.states.Stats() }

// Open opens (creating if missing) the record store for one tenant inside
// tr: the template's variable directories are bound to tenant, the path is
// compiled to a subspace (resolving interned directories through the
// directory layer), and the store header is verified against the provider's
// metadata. The header and index states come from the provider's
// store-state cache when no store's state has changed since it read them,
// so a warm open waits out the GRV and issues no read.
//
// Open also binds a tenant meter to tr when none is bound yet: a Runner with
// an Accountant has already bound the request tenant's meter, which wins;
// otherwise, with a provider-level Accountant configured, the tenant ID is
// derived from the path values. The transaction then charges the tenant for
// all of its I/O from directory resolution on (see Transaction.SetMeter).
func (p *StoreProvider) Open(ctx context.Context, tr *fdb.Transaction, tenant ...interface{}) (*Store, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	path, err := p.ks.PathFor(p.template, tenant...)
	if err != nil {
		return nil, err
	}
	if p.opts.Accountant != nil && tr.Meter() == nil {
		tr.SetMeter(p.opts.Accountant.Tenant(resource.TenantKey(tenant...)))
	}
	space, err := path.ToSubspace(tr)
	if err != nil {
		return nil, err
	}
	cs, err := core.Open(tr, p.md, space, core.OpenOptions{
		CreateIfMissing: true,
		Config:          p.opts.Config,
		StateCache:      p.states,
	})
	if err != nil {
		return nil, err
	}
	return &Store{Store: cs, provider: p}, nil
}

// Delete removes a tenant's entire record store — records, indexes, header —
// with one range clear (§3).
func (p *StoreProvider) Delete(ctx context.Context, tr *fdb.Transaction, tenant ...interface{}) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	path, err := p.ks.PathFor(p.template, tenant...)
	if err != nil {
		return err
	}
	space, err := path.ToSubspace(tr)
	if err != nil {
		return err
	}
	return core.DeleteStore(tr, space)
}

// planFor plans q through the provider's LRU plan cache.
func (p *StoreProvider) planFor(q Query) (plan.Plan, error) {
	key := fingerprint(p.md, q)
	if pl, ok := p.plans.Get(key); ok {
		return pl, nil
	}
	pl, err := p.planner.Plan(q)
	if err != nil {
		return nil, err
	}
	p.plans.Put(key, pl)
	return pl, nil
}

// Store is a per-request record store handle: the underlying core store
// (every record, index, and text-search operation) plus fluent query
// execution under ExecuteProperties. Like the transaction it is bound to, a
// Store is short-lived — open one per request via StoreProvider.Open.
type Store struct {
	*core.Store
	provider *StoreProvider
}

// ExecuteQuery plans q (through the provider's plan cache) and executes it
// under props, returning a streaming cursor whose continuation can resume
// the query in a later transaction.
func (s *Store) ExecuteQuery(ctx context.Context, q Query, props ExecuteProperties) (*RecordCursor, error) {
	pl, err := s.provider.planFor(q)
	if err != nil {
		return nil, err
	}
	return s.ExecutePlan(ctx, pl, props)
}

// ExecutePlan executes a previously planned query under props. Plans are
// immutable and reusable across stores and transactions.
//
// Skip counts records of the whole query, not of each page: skip progress is
// encoded in the continuation, so resuming with the same props (the
// WithContinuation idiom) discards exactly props.Skip records once across
// all pages rather than re-skipping on every transaction.
func (s *Store) ExecutePlan(ctx context.Context, pl plan.Plan, props ExecuteProperties) (*RecordCursor, error) {
	return s.executePlan(ctx, pl, props, nil)
}

// executePlan is ExecutePlan with an optional stats tree (ExplainQuery): when
// stats is non-nil every plan node fills its positionally-stable node, so a
// resumed page handed the same tree accumulates.
func (s *Store) executePlan(ctx context.Context, pl plan.Plan, props ExecuteProperties, stats *obs.PlanStats) (*RecordCursor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cont := props.Continuation
	skip := props.Skip
	if props.Skip > 0 && len(cont) > 0 {
		var err error
		skip, cont, err = decodeSkipContinuation(cont)
		if err != nil {
			return nil, err
		}
	}
	c, err := pl.Execute(s.Store, plan.ExecuteOptions{
		Continuation:  cont,
		Limiter:       props.limiter(ctx),
		Snapshot:      props.Snapshot,
		PipelineDepth: props.pipelineDepth(),
		Stats:         stats,
	})
	if err != nil {
		return nil, err
	}
	if props.Skip > 0 {
		c = &skipCursor{inner: c, remaining: skip}
	}
	if props.RowLimit > 0 {
		c = cursor.Limit(c, props.RowLimit)
	}
	rc := &RecordCursor{ctx: ctx, inner: c}
	if log := s.provider.opts.SlowQueries; log != nil {
		clock := props.Clock
		if clock == nil {
			clock = time.Now
		}
		start := clock()
		trace := obs.FromContext(ctx)
		threshold := props.SlowQueryThreshold
		rc.onHalt = func(rows int, reason cursor.NoNextReason) {
			elapsed := clock().Sub(start)
			slow := threshold > 0 && elapsed >= threshold
			sq := obs.SlowQuery{Plan: pl.String(), Elapsed: elapsed, Rows: rows, Reason: reason.String()}
			if slow {
				sq.Trace = trace.Summary()
			}
			log.Observe(sq, slow) //lint:allow obsguard the onHalt closure is only built under the log != nil guard above
		}
	}
	return rc, nil
}

// ExplainQuery plans q through the provider's cache and executes it to
// completion inside the store's transaction with statistics collection on —
// EXPLAIN ANALYZE. The result is the plan tree annotated with live per-node
// counters (rows in/out, attributed simulator reads and wait, continuation
// pages) plus the transaction-level I/O the execution cost. Limits in props
// apply per page: the query is resumed through its own continuations until
// exhausted, so page-bounded executions show their page count.
func (s *Store) ExplainQuery(ctx context.Context, q Query, props ExecuteProperties) (string, error) {
	pl, err := s.provider.planFor(q)
	if err != nil {
		return "", err
	}
	stats := obs.NewPlanStats(pl.Label())
	before := s.TxnStats()
	rows := 0
	props.Continuation = nil
	for {
		cur, err := s.executePlan(ctx, pl, props, stats)
		if err != nil {
			return "", err
		}
		for {
			_, ok, err := cur.Next()
			if err != nil {
				return "", err
			}
			if !ok {
				break
			}
			rows++
		}
		if cur.Exhausted() || cur.Continuation() == nil {
			break
		}
		props = props.WithContinuation(cur.Continuation())
	}
	after := s.TxnStats()
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n%s", pl.String(), stats.Render())
	fmt.Fprintf(&b, "rows: %d\ntxn: keys_read=%d bytes_read=%d simwait=%s\n",
		rows, after.KeysRead-before.KeysRead, after.BytesRead-before.BytesRead,
		time.Duration(after.SimWaitNanos-before.SimWaitNanos))
	return b.String(), nil
}

// Plan exposes the provider's cached planner for callers that want to
// inspect or pre-plan a query (the plan's String renders the chosen tree).
func (s *Store) Plan(q Query) (plan.Plan, error) { return s.provider.planFor(q) }

// RecordCursor streams query results. After the stream stops (Next returns
// ok == false, or ForEach/ToList return), Continuation and NoNextReason
// report where and why, so the caller can resume in a later transaction.
type RecordCursor struct {
	ctx    context.Context
	inner  cursor.Cursor[*Record]
	reason cursor.NoNextReason
	cont   []byte
	done   bool

	rows int
	// onHalt fires once when the stream halts (slow-query observation).
	onHalt func(rows int, reason cursor.NoNextReason)
}

// Next returns the next record. ok is false when the stream halts; the
// reason and continuation are then available from NoNextReason and
// Continuation. Context cancellation aborts with ctx.Err(); a context
// *deadline* instead surfaces in-stream as a TimeLimitReached halt with a
// resumable continuation (via the execution-time limiter).
func (c *RecordCursor) Next() (*Record, bool, error) {
	if c.done {
		return nil, false, nil
	}
	if err := c.ctx.Err(); errors.Is(err, context.Canceled) {
		return nil, false, err
	}
	r, err := c.inner.Next()
	if err != nil {
		return nil, false, err
	}
	if !r.OK {
		c.done = true
		c.reason = r.Reason
		c.cont = r.Continuation
		if c.onHalt != nil {
			c.onHalt(c.rows, c.reason)
			c.onHalt = nil
		}
		return nil, false, nil
	}
	c.rows++
	c.cont = r.Continuation
	return r.Value, true, nil
}

// ForEach invokes fn for every remaining record, stopping early on error.
func (c *RecordCursor) ForEach(fn func(*Record) error) error {
	for {
		rec, ok, err := c.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// ToList drains the cursor into a slice.
func (c *RecordCursor) ToList() ([]*Record, error) {
	var out []*Record
	err := c.ForEach(func(r *Record) error {
		out = append(out, r)
		return nil
	})
	return out, err
}

// Continuation returns the opaque resume point: pass it to a later
// execution's ExecuteProperties (WithContinuation) to continue the stream,
// even from a different transaction or server. Nil after SourceExhausted.
func (c *RecordCursor) Continuation() []byte { return c.cont }

// NoNextReason reports why the stream stopped (valid once Next has returned
// ok == false).
func (c *RecordCursor) NoNextReason() cursor.NoNextReason { return c.reason }

// Exhausted reports that the stream ended because the data ran out, rather
// than a limit.
func (c *RecordCursor) Exhausted() bool { return c.done && c.reason == cursor.SourceExhausted }
