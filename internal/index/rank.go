package index

import (
	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/kvcursor"
	"recordlayer/internal/metadata"
	"recordlayer/internal/rankedset"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// RankMaintainer implements the RANK index type (Appendix B): alongside an
// ordinary value mapping it maintains a persistent skip list over the index
// entries, giving efficient access to records by ordinal rank (leaderboards)
// and rank-of-value queries (scrollbars).
type RankMaintainer struct {
	ix    *metadata.Index
	value *ValueMaintainer

	// Per-transaction pipelining state: every skip-list mutation in one
	// transaction must flow through a single rankedset.Async so its write log
	// sees them all. Keyed by the transaction so a maintainer reused across
	// transactions (tests, long-lived caches) starts a fresh overlay.
	asyncTr *fdb.Transaction
	async   *rankedset.Async
}

// Sub-subspaces: 0 holds the plain value entries, 1 the skip list.
const (
	rankValueSub = 0
	rankSetSub   = 1
)

func newRankMaintainer(ix *metadata.Index) (Maintainer, error) {
	vm, err := newValueMaintainer(ix)
	if err != nil {
		return nil, err
	}
	return &RankMaintainer{ix: ix, value: vm.(*ValueMaintainer)}, nil
}

func (m *RankMaintainer) set(space subspace.Subspace) *rankedset.RankedSet {
	return rankedset.New(space.Sub(rankSetSub), nil)
}

func (m *RankMaintainer) valueCtx(ctx *Context) *Context {
	sub := *ctx
	sub.Space = ctx.Space.Sub(rankValueSub)
	return &sub
}

// member encodes an index entry plus primary key as a skip-list member, so
// ties on the indexed value order deterministically by primary key.
func member(entry, pk tuple.Tuple) []byte {
	return entry.Append(pk...).Pack()
}

// asyncFor returns the transaction's pipelining overlay, initializing the
// skip-list heads on first use. The head probes are issued together: one
// window per transaction, not per record.
func (m *RankMaintainer) asyncFor(ctx *Context) (*rankedset.Async, error) {
	if m.asyncTr != ctx.Tr {
		rs := m.set(ctx.Space)
		if err := rs.Init(ctx.Tr); err != nil {
			return nil, err
		}
		m.async = rs.Async(ctx.Tr)
		m.asyncTr = ctx.Tr
	}
	return m.async, nil
}

// UpdateAsync implements Maintainer: the value sub-index's probes and every
// skip-list floor read are issued here; the returned Pending resolves them
// and applies the rewrites. Skip-list ops pipeline across records through the
// shared per-transaction overlay, so Pendings must be awaited in issue order.
func (m *RankMaintainer) UpdateAsync(ctx *Context, old, new *Record) (Pending, error) {
	a, err := m.asyncFor(ctx)
	if err != nil {
		return nil, err
	}
	oldEntries, err := entriesFor(ctx.Index, old)
	if err != nil {
		return nil, err
	}
	newEntries, err := entriesFor(ctx.Index, new)
	if err != nil {
		return nil, err
	}
	removed, added := diffEntries(oldEntries, newEntries)
	ops := make([]*rankedset.Op, 0, len(removed)+len(added))
	for _, t := range removed {
		op, err := a.IssueDelete(member(t, old.PrimaryKey))
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	for _, t := range added {
		op, err := a.IssueInsert(member(t, new.PrimaryKey))
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	// The value sub-index's probes are issued last, once nothing else can
	// fail: every error return above precedes the pending's issue, so no
	// issued work is ever abandoned (the futureawait rule).
	vp, err := m.value.UpdateAsync(m.valueCtx(ctx), old, new)
	if err != nil {
		return nil, err
	}
	if len(ops) == 0 {
		return vp, nil
	}
	return pendingFunc(func() error {
		if err := vp.Await(); err != nil {
			return err
		}
		for _, op := range ops {
			if _, err := op.Apply(); err != nil {
				return err
			}
		}
		return nil
	}), nil
}

// Rank returns the ordinal rank of a record's indexed entry; ok=false when
// the (entry, primary key) pair is not indexed.
func (m *RankMaintainer) Rank(ctx *Context, entry, pk tuple.Tuple) (int64, bool, error) {
	return m.set(ctx.Space).Rank(ctx.Tr, member(entry, pk))
}

// RankOfValue returns the rank a value would occupy (count of entries below
// it), whether or not it is present — the scrollbar use case.
func (m *RankMaintainer) RankOfValue(ctx *Context, entry tuple.Tuple) (int64, error) {
	return m.set(ctx.Space).CountLess(ctx.Tr, entry.Pack())
}

// ByRank returns the index entry at the given ordinal rank.
func (m *RankMaintainer) ByRank(ctx *Context, rank int64) (Entry, bool, error) {
	memberKey, ok, err := m.set(ctx.Space).Select(ctx.Tr, rank)
	if err != nil || !ok {
		return Entry{}, false, err
	}
	t, err := tuple.Unpack(memberKey)
	if err != nil {
		return Entry{}, false, err
	}
	kc := m.value.KeyColumns()
	return Entry{Key: t[:kc], PrimaryKey: t[kc:]}, true, nil
}

// Size returns the number of indexed entries.
func (m *RankMaintainer) Size(ctx *Context) (int64, error) {
	return m.set(ctx.Space).Size(ctx.Tr)
}

// ScanByValue streams entries in value order, like a VALUE index.
func (m *RankMaintainer) ScanByValue(ctx *Context, r TupleRange, opts ScanOptions) (cursor.Cursor[Entry], error) {
	return m.value.Scan(m.valueCtx(ctx), r, opts)
}

// ScanByRank streams entries starting at the given rank, in value order:
// a Select to find the start, then an ordinary ordered scan — exactly how
// the paper's scrollbar example avoids linear skipping (App. B).
func (m *RankMaintainer) ScanByRank(ctx *Context, startRank int64, opts ScanOptions) (cursor.Cursor[Entry], error) {
	vctx := m.valueCtx(ctx)
	if len(opts.Continuation) > 0 {
		// Resuming: the continuation addresses the value scan directly.
		return m.value.Scan(vctx, TupleRange{}, opts)
	}
	memberKey, ok, err := m.set(ctx.Space).Select(ctx.Tr, startRank)
	if err != nil {
		return nil, err
	}
	if !ok {
		return cursor.FromSlice[Entry](nil, nil), nil
	}
	begin := make([]byte, 0, len(vctx.Space.Bytes())+len(memberKey))
	begin = append(begin, vctx.Space.Bytes()...)
	begin = append(begin, memberKey...)
	_, end := vctx.Space.Range()
	kvs := kvcursor.New(ctx.Tr, begin, end, kvcursor.Options{
		Reverse:  opts.Reverse,
		Limiter:  opts.Limiter,
		Snapshot: opts.Snapshot,
	})
	space := vctx.Space
	vm := m.value
	return cursor.Map(kvs, func(kv fdb.KeyValue) (Entry, error) {
		return vm.DecodeEntry(space, kv)
	}), nil
}
