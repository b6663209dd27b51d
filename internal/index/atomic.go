package index

import (
	"encoding/binary"
	"fmt"

	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/metadata"
	"recordlayer/internal/tuple"
)

// AtomicMaintainer implements the atomic-mutation index types of §7: COUNT,
// COUNT_UPDATES, COUNT_NON_NULL, SUM, MAX_EVER and MIN_EVER. The index holds
// one small entry per grouping key, updated with FoundationDB atomic
// mutations so concurrent record writes never conflict on the aggregate.
type AtomicMaintainer struct {
	ix       *metadata.Index
	typ      metadata.IndexType
	grouping keyexpr.GroupingExpression
}

func newAtomicMaintainer(typ metadata.IndexType) Factory {
	return func(ix *metadata.Index) (Maintainer, error) {
		m := &AtomicMaintainer{ix: ix, typ: typ}
		switch g := ix.Expression.(type) {
		case keyexpr.GroupingExpression:
			m.grouping = g
		default:
			// COUNT-style indexes may use a plain expression: every column
			// is a grouping column, the aggregate is the record count.
			if typ == metadata.IndexCount || typ == metadata.IndexCountUpdates {
				m.grouping = keyexpr.GroupBy(keyexpr.Empty(), ix.Expression)
			} else {
				return nil, fmt.Errorf("index %q: %s indexes need a GroupBy/Ungrouped expression", ix.Name, typ)
			}
		}
		switch typ {
		case metadata.IndexSum, metadata.IndexCountNonNull,
			metadata.IndexMaxEver, metadata.IndexMinEver:
			if m.grouping.GroupedCount() != 1 {
				return nil, fmt.Errorf("index %q: %s indexes aggregate exactly one column", ix.Name, typ)
			}
		}
		return m, nil
	}
}

func littleEndianInt64(v int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(v))
	return b
}

// UpdateAsync implements Maintainer. Atomic indexes never read — every
// mutation buffers immediately — so the whole update happens at issue time
// and the returned Pending is Done.
func (m *AtomicMaintainer) UpdateAsync(ctx *Context, old, new *Record) (Pending, error) {
	if err := m.update(ctx, old, new); err != nil {
		return nil, err
	}
	return Done, nil
}

func (m *AtomicMaintainer) update(ctx *Context, old, new *Record) error {
	oldEntries, err := entriesFor(ctx.Index, old)
	if err != nil {
		return err
	}
	newEntries, err := entriesFor(ctx.Index, new)
	if err != nil {
		return err
	}
	switch m.typ {
	case metadata.IndexCount:
		// Count of records per group: +1 on insert into a group, -1 on
		// leaving it. Dedupe grouped values within one record.
		return m.applyGroupDelta(ctx, oldEntries, newEntries)
	case metadata.IndexCountUpdates:
		// Number of times the group was written: +1 per save, never -1.
		if new == nil {
			return nil
		}
		for _, g := range groupKeys(m.grouping, newEntries) {
			if err := ctx.Tr.Atomic(fdb.MutationAdd, ctx.Space.Pack(g), littleEndianInt64(1)); err != nil {
				return err
			}
		}
		return nil
	case metadata.IndexCountNonNull:
		return m.applyCounted(ctx, oldEntries, newEntries, func(v tuple.Tuple) (int64, bool) {
			if len(v) == 1 && v[0] != nil {
				return 1, true
			}
			return 0, false
		})
	case metadata.IndexSum:
		return m.applyCounted(ctx, oldEntries, newEntries, func(v tuple.Tuple) (int64, bool) {
			if len(v) != 1 || v[0] == nil {
				return 0, false
			}
			n, ok := v[0].(int64)
			return n, ok
		})
	case metadata.IndexMaxEver, metadata.IndexMinEver:
		// Max/min value ever assigned since index creation: updated on
		// writes, never reverted on deletes (§7). Tuple encoding preserves
		// order, so lexicographic byte min/max is tuple min/max.
		mut := fdb.MutationByteMax
		if m.typ == metadata.IndexMinEver {
			mut = fdb.MutationByteMin
		}
		for _, e := range newEntries {
			g, v := m.grouping.Split(e)
			if len(v) != 1 || v[0] == nil {
				continue
			}
			if err := ctx.Tr.Atomic(mut, ctx.Space.Pack(g), v.Pack()); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("index %q: unsupported atomic type %s", m.ix.Name, m.typ)
}

// groupKeys extracts the distinct grouping keys from evaluated entries.
func groupKeys(g keyexpr.GroupingExpression, entries []tuple.Tuple) []tuple.Tuple {
	seen := map[string]bool{}
	var out []tuple.Tuple
	for _, e := range entries {
		grp, _ := g.Split(e)
		k := string(grp.Pack())
		if !seen[k] {
			seen[k] = true
			out = append(out, grp)
		}
	}
	return out
}

// applyGroupDelta adds -1/+1 for groups the record left/joined.
func (m *AtomicMaintainer) applyGroupDelta(ctx *Context, oldEntries, newEntries []tuple.Tuple) error {
	oldG := groupKeys(m.grouping, oldEntries)
	newG := groupKeys(m.grouping, newEntries)
	removed, added := diffEntries(oldG, newG)
	for _, g := range removed {
		if err := ctx.Tr.Atomic(fdb.MutationAdd, ctx.Space.Pack(g), littleEndianInt64(-1)); err != nil {
			return err
		}
	}
	for _, g := range added {
		if err := ctx.Tr.Atomic(fdb.MutationAdd, ctx.Space.Pack(g), littleEndianInt64(1)); err != nil {
			return err
		}
	}
	return nil
}

// applyCounted adds each entry's contribution and removes the old one.
func (m *AtomicMaintainer) applyCounted(ctx *Context, oldEntries, newEntries []tuple.Tuple,
	contribution func(tuple.Tuple) (int64, bool)) error {

	removed, added := diffEntries(oldEntries, newEntries)
	for _, e := range removed {
		g, v := m.grouping.Split(e)
		if n, ok := contribution(v); ok && n != 0 {
			if err := ctx.Tr.Atomic(fdb.MutationAdd, ctx.Space.Pack(g), littleEndianInt64(-n)); err != nil {
				return err
			}
		}
	}
	for _, e := range added {
		g, v := m.grouping.Split(e)
		if n, ok := contribution(v); ok && n != 0 {
			if err := ctx.Tr.Atomic(fdb.MutationAdd, ctx.Space.Pack(g), littleEndianInt64(n)); err != nil {
				return err
			}
		}
	}
	return nil
}

// GetInt64 reads an integer aggregate (COUNT, SUM, ...) for a group key.
func (m *AtomicMaintainer) GetInt64(ctx *Context, group tuple.Tuple) (int64, error) {
	raw, err := ctx.Tr.Get(ctx.Space.Pack(group))
	if err != nil {
		return 0, err
	}
	if raw == nil {
		return 0, nil
	}
	return int64(binary.LittleEndian.Uint64(raw)), nil
}

// GetTuple reads a MAX_EVER/MIN_EVER aggregate for a group key; ok=false
// when no value was ever written.
func (m *AtomicMaintainer) GetTuple(ctx *Context, group tuple.Tuple) (tuple.Tuple, bool, error) {
	raw, err := ctx.Tr.Get(ctx.Space.Pack(group))
	if err != nil || raw == nil {
		return nil, false, err
	}
	t, err := tuple.Unpack(raw)
	if err != nil {
		return nil, false, err
	}
	return t, true, nil
}
