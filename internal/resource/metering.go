package resource

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"recordlayer/internal/fdb"
	"recordlayer/internal/obs"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// meteringFormatVersion guards the tuple layout of a persisted usage window.
const meteringFormatVersion = 1

// Delta returns u's counters minus prev's — the per-window consumption
// between two snapshots of the same meter. The tenant ID is kept from u.
func (u Usage) Delta(prev Usage) Usage {
	return Usage{
		Tenant:       u.Tenant,
		ReadRecords:  u.ReadRecords - prev.ReadRecords,
		ReadBytes:    u.ReadBytes - prev.ReadBytes,
		WriteRecords: u.WriteRecords - prev.WriteRecords,
		WriteBytes:   u.WriteBytes - prev.WriteBytes,
		Transactions: u.Transactions - prev.Transactions,
		TxnTime:      u.TxnTime - prev.TxnTime,
		Conflicts:    u.Conflicts - prev.Conflicts,
		Admitted:     u.Admitted - prev.Admitted,
		Rejected:     u.Rejected - prev.Rejected,
		Throttled:    u.Throttled - prev.Throttled,
	}
}

// Accumulate returns u with v's counters added — the aggregation step of a
// usage report. The tenant ID is kept from u.
func (u Usage) Accumulate(v Usage) Usage {
	return Usage{
		Tenant:       u.Tenant,
		ReadRecords:  u.ReadRecords + v.ReadRecords,
		ReadBytes:    u.ReadBytes + v.ReadBytes,
		WriteRecords: u.WriteRecords + v.WriteRecords,
		WriteBytes:   u.WriteBytes + v.WriteBytes,
		Transactions: u.Transactions + v.Transactions,
		TxnTime:      u.TxnTime + v.TxnTime,
		Conflicts:    u.Conflicts + v.Conflicts,
		Admitted:     u.Admitted + v.Admitted,
		Rejected:     u.Rejected + v.Rejected,
		Throttled:    u.Throttled + v.Throttled,
	}
}

// IsZero reports whether every counter is zero (an idle window not worth
// exporting).
func (u Usage) IsZero() bool {
	return u.ReadRecords == 0 && u.ReadBytes == 0 &&
		u.WriteRecords == 0 && u.WriteBytes == 0 &&
		u.Transactions == 0 && u.TxnTime == 0 && u.Conflicts == 0 &&
		u.Admitted == 0 && u.Rejected == 0 && u.Throttled == 0
}

// WindowRecord is one persisted metering row: what one server observed one
// tenant consume during one export window.
type WindowRecord struct {
	Tenant string
	Server string
	// Start and Window bound the observation interval.
	Start  time.Time
	Window time.Duration
	// Usage holds the window's consumption deltas (not cumulative totals).
	Usage Usage
}

// MeteringStore persists per-tenant usage windows under a reserved subspace —
// the billing-grade export pipeline: every server's UsageExporter appends its
// Accountant's deltas as versionstamped rows (one per tenant per window), so
// rows from any number of servers interleave without coordination and scan in
// commit order per tenant. Key: (tenant, versionstamp); value: the window's
// counters. All methods run their own transaction and are safe for concurrent
// use.
type MeteringStore struct {
	db    *fdb.Database
	space subspace.Subspace
}

// NewMeteringStore opens a metering store over the given subspace.
func NewMeteringStore(db *fdb.Database, space subspace.Subspace) *MeteringStore {
	return &MeteringStore{db: db, space: space}
}

func encodeWindow(server string, start time.Time, window time.Duration, u Usage) []byte {
	return tuple.Tuple{
		int64(meteringFormatVersion),
		server,
		start.UnixNano(),
		int64(window),
		u.ReadRecords,
		u.ReadBytes,
		u.WriteRecords,
		u.WriteBytes,
		u.Transactions,
		int64(u.TxnTime),
		u.Conflicts,
		u.Admitted,
		u.Rejected,
		u.Throttled,
	}.Pack()
}

func decodeWindow(b []byte) (WindowRecord, error) {
	t, err := tuple.Unpack(b)
	if err != nil {
		return WindowRecord{}, fmt.Errorf("resource: corrupt metering row: %w", err)
	}
	if len(t) != 14 {
		return WindowRecord{}, fmt.Errorf("resource: metering row has %d elements, want 14", len(t))
	}
	version, ok := t[0].(int64)
	if !ok || version != meteringFormatVersion {
		return WindowRecord{}, fmt.Errorf("resource: unsupported metering format version %v", t[0])
	}
	server, ok := t[1].(string)
	if !ok {
		return WindowRecord{}, fmt.Errorf("resource: metering row has mistyped server: %v", t[1])
	}
	ints := make([]int64, 12)
	for i := range ints {
		v, ok := t[2+i].(int64)
		if !ok {
			return WindowRecord{}, fmt.Errorf("resource: metering row has mistyped element %d: %v", 2+i, t[2+i])
		}
		ints[i] = v
	}
	return WindowRecord{
		Server: server,
		Start:  time.Unix(0, ints[0]),
		Window: time.Duration(ints[1]),
		Usage: Usage{
			ReadRecords:  ints[2],
			ReadBytes:    ints[3],
			WriteRecords: ints[4],
			WriteBytes:   ints[5],
			Transactions: ints[6],
			TxnTime:      time.Duration(ints[7]),
			Conflicts:    ints[8],
			Admitted:     ints[9],
			Rejected:     ints[10],
			Throttled:    ints[11],
		},
	}, nil
}

// Export appends one window row per usage delta in a single transaction.
// Keys take the commit versionstamp (with the row index as user version), so
// concurrent exporters never collide and per-tenant rows scan in commit
// order.
func (s *MeteringStore) Export(ctx context.Context, server string, start time.Time, window time.Duration, deltas []Usage) error {
	if len(deltas) == 0 {
		return nil
	}
	_, err := s.db.Transact(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		for i, u := range deltas {
			key, err := s.space.PackWithVersionstamp(tuple.Tuple{
				u.Tenant, tuple.IncompleteVersionstamp(uint16(i)),
			})
			if err != nil {
				return nil, err
			}
			if err := tr.Atomic(fdb.MutationSetVersionstampedKey, key, encodeWindow(server, start, window, u)); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	return err
}

// Records scans every persisted window row in key order (grouped by tenant,
// then commit order).
func (s *MeteringStore) Records(ctx context.Context) ([]WindowRecord, error) {
	v, err := s.db.ReadTransact(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		var out []WindowRecord
		begin, end := s.space.Range()
		for {
			kvs, more, err := tr.Snapshot().GetRange(begin, end, fdb.RangeOptions{Limit: 256})
			if err != nil {
				return nil, err
			}
			for _, kv := range kvs {
				t, err := s.space.Unpack(kv.Key)
				if err != nil {
					return nil, fmt.Errorf("resource: foreign key in metering subspace: %w", err)
				}
				if len(t) != 2 {
					continue // tolerate future siblings
				}
				tenant, ok := t[0].(string)
				if !ok {
					continue
				}
				rec, err := decodeWindow(kv.Value)
				if err != nil {
					return nil, err
				}
				rec.Tenant = tenant
				rec.Usage.Tenant = tenant
				out = append(out, rec)
			}
			if !more || len(kvs) == 0 {
				break
			}
			begin = fdb.KeyAfter(kvs[len(kvs)-1].Key)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]WindowRecord), nil
}

// Report aggregates every window row MTBase-style: per-tenant totals across
// all servers and windows (sorted by tenant), plus the cross-tenant grand
// total — the two query shapes a billing pipeline asks of multi-tenant usage
// data.
func (s *MeteringStore) Report(ctx context.Context) (perTenant []Usage, total Usage, err error) {
	recs, err := s.Records(ctx)
	if err != nil {
		return nil, Usage{}, err
	}
	byTenant := make(map[string]Usage)
	for _, r := range recs {
		agg, ok := byTenant[r.Tenant]
		if !ok {
			agg = Usage{Tenant: r.Tenant}
		}
		byTenant[r.Tenant] = agg.Accumulate(r.Usage)
		total = total.Accumulate(r.Usage)
	}
	ids := make([]string, 0, len(byTenant))
	for id := range byTenant {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		perTenant = append(perTenant, byTenant[id])
	}
	return perTenant, total, nil
}

// UsageExporter periodically snapshots an Accountant and appends each
// tenant's consumption delta since the previous export as a metering window —
// run one per server, all feeding the same MeteringStore. Idle tenants
// (all-zero deltas) are skipped. Safe for concurrent use.
type UsageExporter struct {
	acct   *Accountant
	store  *MeteringStore
	server string
	clock  func() time.Time

	mu   sync.Mutex
	last map[string]Usage
	prev time.Time
}

// NewUsageExporter creates an exporter publishing acct's deltas under the
// given server identity. A nil clock uses time.Now.
func NewUsageExporter(acct *Accountant, store *MeteringStore, server string, clock func() time.Time) *UsageExporter {
	if clock == nil {
		clock = time.Now
	}
	return &UsageExporter{
		acct: acct, store: store, server: server, clock: clock,
		last: make(map[string]Usage), prev: clock(),
	}
}

// Export writes one window: every tenant's delta since the previous Export
// (or since construction), skipping all-zero deltas. Returns the number of
// rows written. On error the baseline is not advanced, so the next Export
// re-covers the window — usage is never silently dropped, at worst exported
// late. A trace bound to ctx (obs.WithTrace) receives one
// obs.SpanMeterExport span (window count or failure cause in the attr) and
// the export transaction's attempt spans.
func (e *UsageExporter) Export(ctx context.Context) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.clock()
	var deltas []Usage
	next := make(map[string]Usage, len(e.last))
	e.acct.ForEach(func(m *Meter) bool {
		u := m.Snapshot()
		next[u.Tenant] = u
		if d := u.Delta(e.last[u.Tenant]); !d.IsZero() {
			deltas = append(deltas, d)
		}
		return true
	})
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Tenant < deltas[j].Tenant })
	trace := obs.FromContext(ctx)
	if err := e.store.Export(ctx, e.server, e.prev, now.Sub(e.prev), deltas); err != nil {
		if trace != nil {
			trace.Add(obs.SpanMeterExport, now.UnixNano(), e.clock().UnixNano(), 0,
				fmt.Sprintf("server=%s err=%v", e.server, err))
		}
		return 0, err
	}
	e.last = next
	e.prev = now
	if trace != nil {
		trace.Add(obs.SpanMeterExport, now.UnixNano(), e.clock().UnixNano(), 0,
			fmt.Sprintf("server=%s windows=%d", e.server, len(deltas)))
	}
	return len(deltas), nil
}

// Run exports every interval until ctx is done, with a final flush on exit
// so shutdown loses no usage: the flush runs under ctx's values without its
// cancellation. Run it on its own goroutine.
func (e *UsageExporter) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			_, _ = e.Export(context.WithoutCancel(ctx))
			return
		case <-t.C:
			_, _ = e.Export(ctx)
		}
	}
}
