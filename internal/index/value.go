package index

import (
	"fmt"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/kvcursor"
	"recordlayer/internal/metadata"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// Entry is one index entry: the indexed key columns, the primary key of the
// record it points to, and any covering value columns (KeyWithValue).
type Entry struct {
	Key        tuple.Tuple
	PrimaryKey tuple.Tuple
	Value      tuple.Tuple
}

// TupleRange selects index entries by key prefix interval. A nil bound is
// unbounded on that side. Bounds are tuple prefixes: an inclusive bound
// includes every entry extending it.
type TupleRange struct {
	Low, High     tuple.Tuple
	LowInclusive  bool
	HighInclusive bool
}

// ToKeyRange resolves the tuple range to a physical key range within space.
func (r TupleRange) ToKeyRange(space subspace.Subspace) (begin, end []byte, err error) {
	if r.Low == nil {
		begin, _ = space.Range()
	} else {
		packed := space.Pack(r.Low)
		if r.LowInclusive {
			begin = packed
		} else {
			begin, err = tuple.Strinc(packed)
			if err != nil {
				return nil, nil, err
			}
		}
	}
	if r.High == nil {
		_, end = space.Range()
	} else {
		packed := space.Pack(r.High)
		if r.HighInclusive {
			end, err = tuple.Strinc(packed)
			if err != nil {
				return nil, nil, err
			}
		} else {
			end = packed
		}
	}
	return begin, end, nil
}

// ValueMaintainer implements the default VALUE index type (§7): a mapping
// from indexed field values to record primary keys.
type ValueMaintainer struct {
	ix         *metadata.Index
	keyColumns int // entry columns stored in the key
	kwv        *keyexpr.KeyWithValueExpression
}

func newValueMaintainer(ix *metadata.Index) (Maintainer, error) {
	m := &ValueMaintainer{ix: ix, keyColumns: ix.Expression.ColumnCount()}
	if kwv, ok := ix.Expression.(keyexpr.KeyWithValueExpression); ok {
		m.kwv = &kwv
		m.keyColumns = kwv.KeyColumns()
	}
	return m, nil
}

// KeyColumns returns the number of key columns preceding the primary key in
// each entry.
func (m *ValueMaintainer) KeyColumns() int { return m.keyColumns }

// splitEntry divides an evaluated tuple into key and covering-value parts.
func (m *ValueMaintainer) splitEntry(t tuple.Tuple) (key, value tuple.Tuple) {
	if m.kwv != nil {
		return m.kwv.Split(t)
	}
	return t, nil
}

func (m *ValueMaintainer) entryKey(space subspace.Subspace, key, pk tuple.Tuple) []byte {
	return space.Pack(key.Append(pk...))
}

// ExpectedEntries returns the entries record r should have in this index:
// the evaluated key expression split into key and covering-value columns,
// each carrying r's primary key. A nil or non-applicable record has none.
// The consistency scrubber compares these against the physical entries.
func (m *ValueMaintainer) ExpectedEntries(r *Record) ([]Entry, error) {
	ts, err := entriesFor(m.ix, r)
	if err != nil {
		return nil, err
	}
	out := make([]Entry, 0, len(ts))
	for _, t := range ts {
		key, value := m.splitEntry(t)
		out = append(out, Entry{Key: key, PrimaryKey: r.PrimaryKey, Value: value})
	}
	return out, nil
}

// EntryKey returns the physical key an entry occupies within space, so the
// scrubber can probe for (and repair) individual entries.
func (m *ValueMaintainer) EntryKey(space subspace.Subspace, e Entry) []byte {
	return m.entryKey(space, e.Key, e.PrimaryKey)
}

// EntryValue returns the physical value an entry stores: the packed covering
// columns, or nil when the entry has none.
func (m *ValueMaintainer) EntryValue(e Entry) []byte {
	if len(e.Value) > 0 {
		return e.Value.Pack()
	}
	return nil
}

// UpdateAsync implements Maintainer. The issue phase performs all mutations
// — removals, then insertions — and issues the uniqueness probes between
// them, so a record vacating its own old key probes the post-clear state and
// the probes see the pre-insert state (data resolves at issue time). Await
// verifies the probe results; non-unique indexes return Done.
func (m *ValueMaintainer) UpdateAsync(ctx *Context, old, new *Record) (Pending, error) {
	oldEntries, err := entriesFor(ctx.Index, old)
	if err != nil {
		return nil, err
	}
	newEntries, err := entriesFor(ctx.Index, new)
	if err != nil {
		return nil, err
	}
	removed, added := diffEntries(oldEntries, newEntries)
	for _, t := range removed {
		key, _ := m.splitEntry(t)
		if err := ctx.Tr.Clear(m.entryKey(ctx.Space, key, old.PrimaryKey)); err != nil {
			return nil, err
		}
	}
	var probes []*fdb.FutureRange
	if m.ix.Unique && len(added) > 0 {
		// Issue every probe before awaiting any: a fan-out save's uniqueness
		// checks share one simulated latency window instead of paying one
		// round trip per added entry (§8). Issued after the removals so a
		// record vacating its own old key probes the post-clear state.
		probes = make([]*fdb.FutureRange, len(added))
		for i, t := range added {
			key, _ := m.splitEntry(t)
			begin, end := ctx.Space.RangeForTuple(key)
			probes[i] = ctx.Tr.GetRangeAsync(begin, end, fdb.RangeOptions{Limit: 2})
		}
	}
	for _, t := range added {
		key, value := m.splitEntry(t)
		var packed []byte
		if len(value) > 0 {
			packed = value.Pack()
		}
		ek := m.entryKey(ctx.Space, key, new.PrimaryKey)
		if err := ctx.Tr.Set(ek, packed); err != nil {
			return nil, err
		}
	}
	if probes == nil {
		return Done, nil
	}
	pk := new.PrimaryKey
	return pendingFunc(func() error {
		return m.verifyUnique(ctx, added, probes, pk)
	}), nil
}

// verifyUnique rejects any added entry whose index key was already held by a
// different primary key when its probe was issued.
func (m *ValueMaintainer) verifyUnique(ctx *Context, added []tuple.Tuple, probes []*fdb.FutureRange, pk tuple.Tuple) error {
	for i, t := range added {
		key, _ := m.splitEntry(t)
		kvs, _, err := probes[i].Get()
		if err != nil {
			return err
		}
		for _, kv := range kvs {
			e, err := m.DecodeEntry(ctx.Space, kv)
			if err != nil {
				return err
			}
			if tuple.Compare(e.PrimaryKey, pk) != 0 {
				return fmt.Errorf("index %q: uniqueness violation on key %v (held by %v)",
					m.ix.Name, key, e.PrimaryKey)
			}
		}
	}
	return nil
}

// DecodeEntry parses a physical pair back into an Entry.
func (m *ValueMaintainer) DecodeEntry(space subspace.Subspace, kv fdb.KeyValue) (Entry, error) {
	t, err := space.Unpack(kv.Key)
	if err != nil {
		return Entry{}, err
	}
	if len(t) < m.keyColumns {
		return Entry{}, fmt.Errorf("index %q: entry key has %d columns, expected >= %d",
			m.ix.Name, len(t), m.keyColumns)
	}
	e := Entry{Key: t[:m.keyColumns], PrimaryKey: t[m.keyColumns:]}
	if len(kv.Value) > 0 {
		v, err := tuple.Unpack(kv.Value)
		if err != nil {
			return Entry{}, err
		}
		e.Value = v
	}
	return e, nil
}

// ScanOptions controls index scans.
type ScanOptions struct {
	Reverse      bool
	Limiter      *cursor.Limiter
	Continuation []byte
	// Snapshot reads without adding read conflict ranges.
	Snapshot bool
}

// Scan streams index entries in the tuple range in key order.
func (m *ValueMaintainer) Scan(ctx *Context, r TupleRange, opts ScanOptions) (cursor.Cursor[Entry], error) {
	begin, end, err := r.ToKeyRange(ctx.Space)
	if err != nil {
		return nil, err
	}
	kvs := kvcursor.New(ctx.Tr, begin, end, kvcursor.Options{
		Reverse:      opts.Reverse,
		Limiter:      opts.Limiter,
		Continuation: opts.Continuation,
		Snapshot:     opts.Snapshot,
	})
	space := ctx.Space
	return cursor.Map(kvs, func(kv fdb.KeyValue) (Entry, error) {
		return m.DecodeEntry(space, kv)
	}), nil
}
