package index

import (
	"fmt"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/kvcursor"
	"recordlayer/internal/metadata"
	"recordlayer/internal/subspace"
)

// VersionMaintainer implements VERSION indexes (§7): entries whose key
// expression includes the record's 12-byte commit version — 10 bytes
// assigned by the database at commit, 2 bytes by a per-transaction counter.
// Entries for new records are written with versionstamped keys, completed
// atomically at commit; the index therefore exposes the total ordering of
// operations within the cluster, which CloudKit's sync scans (§8.1).
type VersionMaintainer struct {
	ix      *metadata.Index
	columns int
}

func newVersionMaintainer(ix *metadata.Index) (Maintainer, error) {
	ok := false
	for _, c := range ix.Expression.Columns() {
		// Either an explicit version() column or a function that may emit
		// versionstamps (e.g. CloudKit's (incarnation, version) sync key,
		// §8.1) qualifies.
		if c.Kind == keyexpr.ColVersion || c.Kind == keyexpr.ColFunction {
			ok = true
		}
	}
	if !ok {
		return nil, fmt.Errorf("index %q: version indexes need a version() or function column", ix.Name)
	}
	return &VersionMaintainer{ix: ix, columns: ix.Expression.ColumnCount()}, nil
}

// KeyColumns returns the number of key columns preceding the primary key.
func (m *VersionMaintainer) KeyColumns() int { return m.columns }

// UpdateAsync implements Maintainer. Version indexes never read — clears,
// sets, and versionstamped keys all buffer immediately — so the whole update
// happens at issue time and the returned Pending is Done.
func (m *VersionMaintainer) UpdateAsync(ctx *Context, old, new *Record) (Pending, error) {
	if err := m.update(ctx, old, new); err != nil {
		return nil, err
	}
	return Done, nil
}

func (m *VersionMaintainer) update(ctx *Context, old, new *Record) error {
	// Old entries carry the old record's stored (complete) version, so they
	// are ordinary keys to clear.
	oldEntries, err := entriesFor(ctx.Index, old)
	if err != nil {
		return err
	}
	for _, t := range oldEntries {
		full := t.Append(old.PrimaryKey...)
		if full.HasIncompleteVersionstamp() {
			// The old record never had a version (versions disabled when it
			// was written): nothing was indexed.
			continue
		}
		key := ctx.Space.Pack(full)
		if err := ctx.Tr.Clear(key); err != nil {
			return err
		}
	}
	newEntries, err := entriesFor(ctx.Index, new)
	if err != nil {
		return err
	}
	for _, t := range newEntries {
		full := t.Append(new.PrimaryKey...)
		if !full.HasIncompleteVersionstamp() {
			key := ctx.Space.Pack(full)
			if err := ctx.Tr.Set(key, nil); err != nil {
				return err
			}
			continue
		}
		// The incomplete stamp already carries the record's per-transaction
		// user version; the 10-byte prefix is completed at commit (§7).
		key, err := ctx.Space.PackWithVersionstamp(full)
		if err != nil {
			return err
		}
		if err := ctx.Tr.Atomic(fdb.MutationSetVersionstampedKey, key, nil); err != nil {
			return err
		}
	}
	return nil
}

// DecodeEntry parses a physical pair into an Entry.
func (m *VersionMaintainer) DecodeEntry(space subspace.Subspace, kv fdb.KeyValue) (Entry, error) {
	t, err := space.Unpack(kv.Key)
	if err != nil {
		return Entry{}, err
	}
	if len(t) < m.columns {
		return Entry{}, fmt.Errorf("index %q: malformed version entry", m.ix.Name)
	}
	return Entry{Key: t[:m.columns], PrimaryKey: t[m.columns:]}, nil
}

// Scan streams version index entries in version order — a sync scan.
func (m *VersionMaintainer) Scan(ctx *Context, r TupleRange, opts ScanOptions) (cursor.Cursor[Entry], error) {
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
