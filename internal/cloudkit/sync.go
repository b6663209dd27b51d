package cloudkit

import (
	"context"
	"fmt"

	"recordlayer/internal/core"
	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/tuple"
)

// SyncChange is one entry of a zone's change feed.
type SyncChange struct {
	Zone        string
	RecordType  string
	RecordName  string
	Incarnation int64
	// Version is the change's position in the total order: the commit
	// version for new-method records, the update counter for legacy ones.
	Version tuple.Tuple
}

// SyncResult is one page of a sync operation.
type SyncResult struct {
	Changes      []SyncChange
	Continuation []byte
	// More reports whether the scan stopped at a limit rather than the end
	// of the change feed.
	More bool
}

// SyncZone brings a device up to date with a zone (§8.1): scan the VERSION
// sync index from the supplied continuation. The total order over
// (incarnation, version) pairs survives cross-cluster moves; legacy
// update-counter entries sort first via the (0, counter) mapping.
func (s *Service) SyncZone(store *core.Store, zone string, continuation []byte, limit int) (*SyncResult, error) {
	c, err := store.ScanIndex(SyncIndexName, index.TupleRange{
		Low: tuple.Tuple{zone}, LowInclusive: true,
		High: tuple.Tuple{zone}, HighInclusive: true,
	}, index.ScanOptions{Continuation: continuation})
	if err != nil {
		return nil, err
	}
	limited := cursor.Limit(c, limit)
	// The continuation tracks the last change delivered, so a caught-up
	// device can keep it and later resume from the same point — observing
	// all newly written data (§7's total-ordering property).
	res := &SyncResult{Continuation: continuation}
	var entries []index.Entry
	for {
		r, err := limited.Next()
		if err != nil {
			return nil, err
		}
		if !r.OK {
			res.More = r.Reason != cursor.SourceExhausted
			break
		}
		entries = append(entries, r.Value)
		res.Continuation = r.Continuation
	}
	for _, e := range entries {
		// Entry key: (zone, incarnation|0, version|counter); primary key:
		// (zone, recordTypeKey, recordName).
		if len(e.Key) != 3 || len(e.PrimaryKey) != 3 {
			return nil, fmt.Errorf("cloudkit: malformed sync entry %v / %v", e.Key, e.PrimaryKey)
		}
		rt, ok := store.MetaData().RecordTypeForKey(e.PrimaryKey[1])
		if !ok {
			return nil, fmt.Errorf("cloudkit: sync entry with unknown record type key %v", e.PrimaryKey[1])
		}
		res.Changes = append(res.Changes, SyncChange{
			Zone:        e.Key[0].(string),
			RecordType:  rt.Name,
			RecordName:  e.PrimaryKey[2].(string),
			Incarnation: e.Key[1].(int64),
			Version:     e.Key[1:3],
		})
	}
	return res, nil
}

// QuotaUsage returns the total stored record bytes per record type, from the
// system SUM index CloudKit uses for quota management (§8).
func (s *Service) QuotaUsage(store *core.Store, typeName string) (int64, error) {
	rt, ok := store.MetaData().RecordType(typeName)
	if !ok {
		return 0, fmt.Errorf("cloudkit: container has no record type %q", typeName)
	}
	return store.AggregateInt64(QuotaIndexName, tuple.Tuple{rt.TypeKey()})
}

// ZoneRecordCount returns the number of records in a zone.
func (s *Service) ZoneRecordCount(store *core.Store, zone string) (int64, error) {
	return store.AggregateInt64(CountIndexName, tuple.Tuple{zone})
}

// MoveUser relocates a user's record store to another cluster (§8.1): copy
// the store's contiguous key range — everything needed to interpret and
// operate the store lives inside it (§3) — then increment the user's
// incarnation on the destination so post-move commit versions, which are
// uncorrelated with the source cluster's, still sort after pre-move changes.
func (s *Service) MoveUser(ctx context.Context, src, dst *fdb.Database, ct *Container, userID int64) error {
	// Resolve the store subspace on the source; the directory layer state
	// is part of what we copy, so the same path resolves on the destination.
	var sp subspaceHolder
	_, err := src.ReadTransact(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		space, err := s.StoreSubspace(tr, ct, userID)
		if err != nil {
			return nil, err
		}
		sp.begin, sp.end = space.Range()
		return nil, nil
	})
	if err != nil {
		return err
	}
	// Copy the key range (with the directory-layer region so interned
	// application names stay resolvable).
	ranges := [][2][]byte{
		{sp.begin, sp.end},
		{[]byte{0xFE}, []byte{0xFF}}, // directory layer metadata
	}
	for _, r := range ranges {
		kvs, err := readAll(ctx, src, r[0], r[1])
		if err != nil {
			return err
		}
		if err := writeAll(ctx, dst, kvs); err != nil {
			return err
		}
	}
	// Increment the incarnation on the destination (§8.1).
	_, err = dst.Transact(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := s.UserStore(tr, ct, userID)
		if err != nil {
			return nil, err
		}
		return nil, store.SetUserVersion(store.Header().UserVersion + 1)
	})
	if err != nil {
		return err
	}
	// Clear the source range: the tenant has moved.
	_, err = src.Transact(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		return nil, tr.ClearRange(sp.begin, sp.end)
	})
	return err
}

type subspaceHolder struct{ begin, end []byte }

func readAll(ctx context.Context, db *fdb.Database, begin, end []byte) ([]fdb.KeyValue, error) {
	v, err := db.ReadTransact(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		kvs, _, err := tr.Snapshot().GetRange(begin, end, fdb.RangeOptions{})
		return kvs, err
	})
	if err != nil {
		return nil, err
	}
	return v.([]fdb.KeyValue), nil
}

func writeAll(ctx context.Context, db *fdb.Database, kvs []fdb.KeyValue) error {
	_, err := db.Transact(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		for _, kv := range kvs {
			if err := tr.Set(kv.Key, kv.Value); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	return err
}

// Incarnation returns the user's current incarnation.
func Incarnation(store *core.Store) int64 { return int64(store.Header().UserVersion) }
