// Package index implements index maintenance (§6) and the built-in index
// types (§7, Appendix B). Indexes are durable structures maintained in a
// streaming fashion: updated incrementally, in the same transaction as the
// record change itself, so they are always consistent with the data.
//
// Each index type is implemented by a Maintainer registered in a registry;
// clients plug in custom types the same way the built-ins are installed —
// the extensibility point §3.1 and §9 highlight.
package index

import (
	"fmt"
	"sync"

	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// Record is the indexed view of a stored record.
type Record struct {
	Type       *metadata.RecordType
	Message    *message.Message
	PrimaryKey tuple.Tuple
	// Version is the record's commit version when known (old records read
	// from the store always know theirs; new records receive one at commit).
	Version    tuple.Versionstamp
	HasVersion bool
	// PendingUserVersion is the per-transaction counter value assigned to a
	// new record's commit version, shared by its version slot and its
	// version index entries (§7).
	PendingUserVersion uint16
}

// evalContext builds the key expression context for a record.
func (r *Record) evalContext() *keyexpr.Context {
	return &keyexpr.Context{
		Message:            r.Message,
		RecordTypeKey:      r.Type.TypeKey(),
		Version:            r.Version,
		HasVersion:         r.HasVersion,
		PendingUserVersion: r.PendingUserVersion,
	}
}

// Context carries everything a maintainer needs for one operation.
type Context struct {
	Tr    *fdb.Transaction
	Index *metadata.Index
	// Space is the index's dedicated subspace within the record store, so
	// the whole index can be removed with one range clear (§6).
	Space    subspace.Subspace
	MetaData *metadata.MetaData
	// NextUserVersion allocates the 2-byte per-transaction counter appended
	// to commit versions (§7, VERSION indexes).
	NextUserVersion func() uint16
}

// Pending is the await half of a two-phase index update. UpdateAsync issues
// the update's reads and buffers what it can; Await blocks on the issued
// futures and applies the remaining mutations. Await must be called exactly
// once; the Pending is dead afterwards.
type Pending interface {
	Await() error
}

// pendingFunc adapts a closure to Pending.
type pendingFunc func() error

func (f pendingFunc) Await() error { return f() }

// donePending is a comparable resolved Pending, so callers can test p == Done.
type donePending struct{}

func (donePending) Await() error { return nil }

// Done is a resolved Pending: the update completed entirely during the issue
// phase (atomic-mutation and version indexes, which never read). Awaiting it
// is free.
var Done Pending = donePending{}

// Maintainer updates index data when records change. Exactly one of old and
// new may be nil: insert (old nil), update (both), delete (new nil).
//
// UpdateAsync is the issue half of a two-phase update: it evaluates the
// record, issues every read the update needs (uniqueness probes, skip-list
// descents, bunched-map boundary lookups) without awaiting any, and returns a
// Pending whose Await resolves the reads and applies the mutations. Callers
// updating many records issue every record's UpdateAsync before awaiting any
// Pending, so all probe reads share one simulated latency window (§8).
// Maintainers that never read return Done. The returned Pendings must be
// awaited in issue order.
type Maintainer interface {
	UpdateAsync(ctx *Context, old, new *Record) (Pending, error)
}

// Update runs a maintainer's two phases back to back — the serial degenerate
// case of UpdateAsync for callers updating one record at a time.
func Update(m Maintainer, ctx *Context, old, new *Record) error {
	p, err := m.UpdateAsync(ctx, old, new)
	if err != nil {
		return err
	}
	return p.Await()
}

// Factory builds a maintainer for an index definition, validating the
// definition for this type.
type Factory func(ix *metadata.Index) (Maintainer, error)

var (
	regMu    sync.RWMutex
	registry = map[metadata.IndexType]Factory{}
)

// RegisterIndexType installs a maintainer factory; built-ins register in
// init, clients add custom types the same way.
func RegisterIndexType(t metadata.IndexType, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[t] = f
}

// NewMaintainer builds the maintainer for an index.
func NewMaintainer(ix *metadata.Index) (Maintainer, error) {
	regMu.RLock()
	f, ok := registry[ix.Type]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("index: no maintainer registered for type %q", ix.Type)
	}
	return f(ix)
}

// entriesFor evaluates the index key expression for a record, honoring the
// index filter (sparse indexes, §6). A nil record yields no entries.
func entriesFor(ix *metadata.Index, r *Record) ([]tuple.Tuple, error) {
	if r == nil {
		return nil, nil
	}
	if !ix.AppliesTo(r.Type.Name) {
		return nil, nil
	}
	if filter, err := ix.Filter(); err != nil {
		return nil, err
	} else if filter != nil && !filter(r.Message) {
		return nil, nil
	}
	return ix.Expression.Evaluate(r.evalContext())
}

// diffEntries splits old/new entry sets into (removed, added), leaving
// unchanged entries untouched — the §6 optimization that skips rewriting
// index keys whose indexed fields did not change.
func diffEntries(old, new []tuple.Tuple) (removed, added []tuple.Tuple) {
	oldSet := make(map[string]bool, len(old))
	newSet := make(map[string]bool, len(new))
	for _, t := range old {
		oldSet[string(t.Pack())] = true
	}
	for _, t := range new {
		newSet[string(t.Pack())] = true
	}
	for _, t := range old {
		if !newSet[string(t.Pack())] {
			removed = append(removed, t)
		}
	}
	for _, t := range new {
		if !oldSet[string(t.Pack())] {
			added = append(added, t)
		}
	}
	return removed, added
}

func init() {
	RegisterIndexType(metadata.IndexValue, newValueMaintainer)
	RegisterIndexType(metadata.IndexCount, newAtomicMaintainer(metadata.IndexCount))
	RegisterIndexType(metadata.IndexCountUpdates, newAtomicMaintainer(metadata.IndexCountUpdates))
	RegisterIndexType(metadata.IndexCountNonNull, newAtomicMaintainer(metadata.IndexCountNonNull))
	RegisterIndexType(metadata.IndexSum, newAtomicMaintainer(metadata.IndexSum))
	RegisterIndexType(metadata.IndexMaxEver, newAtomicMaintainer(metadata.IndexMaxEver))
	RegisterIndexType(metadata.IndexMinEver, newAtomicMaintainer(metadata.IndexMinEver))
	RegisterIndexType(metadata.IndexVersion, newVersionMaintainer)
	RegisterIndexType(metadata.IndexRank, newRankMaintainer)
	RegisterIndexType(metadata.IndexText, newTextMaintainer)
}
