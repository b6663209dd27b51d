// Package lease implements distributed quota leases: each stateless server
// claims a time-bounded slice of every rate-limited tenant's global txn/s and
// bytes/s budget as a row in the reserved keyspace, renews it on a heartbeat,
// and rebalances slices toward observed demand. The invariant the store
// enforces transactionally is that the live slices for one tenant never sum
// to more than the tenant's global limit — so N servers sharing one
// LimitsStore grant the tenant its budget once, not N times (the ROADMAP's
// "last real governance gap"). An expired lease is reclaimed by whichever
// server next claims the tenant, so a crashed server's share returns to the
// pool within one TTL.
//
// The resource-sharing scheme follows Zeng's multi-tenant NoSQL thesis (see
// PAPERS.md): demand-proportional shares with a minimum floor, converging to
// an equal split when nobody reports demand.
package lease

import (
	"context"
	"fmt"
	"math"
	"time"

	"recordlayer/internal/fdb"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// leaseFormatVersion guards the tuple layout of a persisted lease row.
const leaseFormatVersion = 1

// MinFraction is the default floor on a live server's slice: even an idle
// server keeps this fraction of the global limit so a first request after an
// idle period is not rejected outright while the next heartbeat grows the
// slice. The floor is small enough that sum(floors) stays far under the
// global limit for realistic fleet sizes.
const MinFraction = 0.05

// Slice is one server's held portion of a tenant's global budget.
type Slice struct {
	// Txn and Bytes are the absolute rates (per second) this server may
	// grant locally. Zero means the corresponding resource is not leased
	// (the global limit has no rate for it).
	Txn   float64
	Bytes float64
	// Expires is when the lease lapses unless renewed; after this instant
	// any server may reclaim the slice.
	Expires time.Time
}

// Row is a decoded lease row: one server's claim on one tenant.
type Row struct {
	Tenant string
	Server string
	Slice  Slice
	// TxnDemand and BytesDemand are the demand observations the owner
	// published with its last renewal — the inputs every other server uses
	// to size its own next claim.
	TxnDemand   float64
	BytesDemand float64
}

// Demand is a server's observed appetite for one tenant, in the same units
// as the limits (txn/s and bytes/s).
type Demand struct {
	Txn   float64
	Bytes float64
}

// Store reads and writes lease rows under a reserved subspace (the façade
// nests it under the limits directory: /__system__/limits/leases). Row key:
// (tenant, server); value: a tuple of slices, demands, and expiry. All
// methods run their own transaction and are safe for concurrent use.
type Store struct {
	db    *fdb.Database
	space subspace.Subspace
}

// NewStore opens a lease store over the given subspace.
func NewStore(db *fdb.Database, space subspace.Subspace) *Store {
	return &Store{db: db, space: space}
}

func encodeLease(s Slice, d Demand) []byte {
	return tuple.Tuple{
		int64(leaseFormatVersion),
		s.Txn,
		s.Bytes,
		d.Txn,
		d.Bytes,
		s.Expires.UnixNano(),
	}.Pack()
}

func decodeLease(b []byte) (Slice, Demand, error) {
	t, err := tuple.Unpack(b)
	if err != nil {
		return Slice{}, Demand{}, fmt.Errorf("lease: corrupt lease row: %w", err)
	}
	if len(t) != 6 {
		return Slice{}, Demand{}, fmt.Errorf("lease: lease row has %d elements, want 6", len(t))
	}
	version, ok := t[0].(int64)
	if !ok || version != leaseFormatVersion {
		return Slice{}, Demand{}, fmt.Errorf("lease: unsupported lease format version %v", t[0])
	}
	asFloat := func(v interface{}) (float64, bool) {
		switch x := v.(type) {
		case float64:
			return x, true
		case int64:
			return float64(x), true
		}
		return 0, false
	}
	var s Slice
	var d Demand
	var expires int64
	var ok1, ok2, ok3, ok4, ok5 bool
	s.Txn, ok1 = asFloat(t[1])
	s.Bytes, ok2 = asFloat(t[2])
	d.Txn, ok3 = asFloat(t[3])
	d.Bytes, ok4 = asFloat(t[4])
	expires, ok5 = t[5].(int64)
	if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 {
		return Slice{}, Demand{}, fmt.Errorf("lease: lease row has mistyped elements: %v", t)
	}
	s.Expires = time.Unix(0, expires)
	return s, d, nil
}

// key returns the row key for one server's lease on one tenant.
func (s *Store) key(tenant, server string) []byte {
	return s.space.Pack(tuple.Tuple{tenant, server})
}

// Claim claims (or renews) server's lease slice of tenant's global budget in
// one transaction: expired peers are reclaimed (their rows cleared), live
// peers' slices and published demands are summed, and the server's share is
// sized demand-proportionally — global * own/(own+peers), an equal split when
// nobody reports demand — floored at MinFraction of the global limit and
// capped so that the sum of live slices never exceeds the global limit. The
// cap is enforced under the transaction's conflict detection: two servers
// racing to claim the same headroom conflict and one retries against the
// other's committed row.
//
// Resources with no global rate (<= 0, unlimited) are not leased; the
// returned Slice reports 0 for them.
func (s *Store) Claim(ctx context.Context, tenant, server string, globalTxn, globalBytes float64, d Demand, now time.Time, ttl time.Duration) (Slice, error) {
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	v, err := s.db.Transact(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		rows, err := s.tenantRowsLocked(tr, tenant, now, true)
		if err != nil {
			return nil, err
		}
		var peersTxn, peersBytes float64 // live slices held by others
		var demTxn, demBytes float64     // total published demand incl. ours
		live := 1                        // live servers incl. ourselves
		for _, r := range rows {
			if r.Server == server {
				continue // our own row is being replaced
			}
			live++
			peersTxn += r.Slice.Txn
			peersBytes += r.Slice.Bytes
			demTxn += r.TxnDemand
			demBytes += r.BytesDemand
		}
		slice := Slice{
			Txn:     share(globalTxn, d.Txn, demTxn, peersTxn, live),
			Bytes:   share(globalBytes, d.Bytes, demBytes, peersBytes, live),
			Expires: now.Add(ttl),
		}
		if err := tr.Set(s.key(tenant, server), encodeLease(slice, d)); err != nil {
			return nil, err
		}
		return slice, nil
	})
	if err != nil {
		return Slice{}, err
	}
	return v.(Slice), nil
}

// share sizes one resource's slice: demand-proportional with an equal-split
// fallback, floored at MinFraction, capped at the headroom the live peers
// leave. global <= 0 (unlimited) leases nothing.
func share(global, own, peers float64, peersHeld float64, live int) float64 {
	if global <= 0 {
		return 0
	}
	var target float64
	if own+peers > 0 {
		target = global * own / (own + peers)
	} else {
		target = global / float64(live)
	}
	target = math.Max(target, global*MinFraction)
	headroom := global - peersHeld
	if target > headroom {
		target = headroom
	}
	if target < 0 {
		target = 0
	}
	return target
}

// Release drops server's lease on tenant, returning its slice to the pool
// immediately (the cooperative path — crashes rely on expiry instead).
func (s *Store) Release(ctx context.Context, tenant, server string) error {
	_, err := s.db.Transact(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		return nil, tr.Clear(s.key(tenant, server))
	})
	return err
}

// Live returns tenant's live (unexpired) lease rows at now — the observability
// hook tests and the fleet sampler use to assert the sum invariant.
func (s *Store) Live(ctx context.Context, tenant string, now time.Time) ([]Row, error) {
	v, err := s.db.ReadTransact(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		return s.tenantRowsLocked(tr, tenant, now, false)
	})
	if err != nil {
		return nil, err
	}
	return v.([]Row), nil
}

// tenantRowsLocked reads tenant's lease rows inside tr, returning the live
// ones. With reclaim set, expired rows are cleared in the same transaction —
// the write-path reclamation that returns a crashed server's share to the
// pool (readers leave them for the next claimant).
func (s *Store) tenantRowsLocked(tr *fdb.Transaction, tenant string, now time.Time, reclaim bool) ([]Row, error) {
	var out []Row
	begin, end := s.space.RangeForTuple(tuple.Tuple{tenant})
	for {
		kvs, more, err := tr.GetRange(begin, end, fdb.RangeOptions{Limit: 256})
		if err != nil {
			return nil, err
		}
		for _, kv := range kvs {
			t, err := s.space.Unpack(kv.Key)
			if err != nil {
				return nil, fmt.Errorf("lease: foreign key in lease subspace: %w", err)
			}
			if len(t) != 2 {
				continue // tolerate future siblings
			}
			srv, ok := t[1].(string)
			if !ok {
				continue
			}
			slice, demand, err := decodeLease(kv.Value)
			if err != nil {
				return nil, err
			}
			if !slice.Expires.After(now) {
				if reclaim {
					if err := tr.Clear(kv.Key); err != nil {
						return nil, err
					}
				}
				continue
			}
			out = append(out, Row{
				Tenant: tenant, Server: srv, Slice: slice,
				TxnDemand: demand.Txn, BytesDemand: demand.Bytes,
			})
		}
		if !more || len(kvs) == 0 {
			break
		}
		begin = fdb.KeyAfter(kvs[len(kvs)-1].Key)
	}
	return out, nil
}
