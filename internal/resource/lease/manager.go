package lease

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"recordlayer/internal/fdb"
	"recordlayer/internal/obs"
	"recordlayer/internal/resource"
)

// minLeasedRate is the rate installed for a resource whose granted slice
// rounds to zero (peers hold the whole budget). It must be a tiny *positive*
// rate: in Limits, a rate of 0 means unlimited, which would hand the tenant
// the very budget the lease denied.
const minLeasedRate = 0.001

// Options configures a Manager.
type Options struct {
	// Server identifies this process in lease rows. Required, unique per
	// governor sharing the store.
	Server string
	// TTL is how long a claimed slice remains valid unrenewed; expired
	// slices are reclaimable by any peer. Refresh at least 2-3x per TTL.
	// Defaults to 10s.
	TTL time.Duration
	// Clock supplies time (tests inject a manual clock). Defaults to
	// time.Now.
	Clock func() time.Time
}

// Manager runs one server's side of the distributed quota protocol: each
// Refresh reloads the persisted limits table, applies it to the local
// Governor, and for every rate-limited tenant claims (or renews) a lease
// slice sized to this server's observed demand, installing the granted slice
// as the tenant's effective limits (Governor.SetLease). Tenants leaving the
// table get their leases released and cleared. Safe for concurrent use;
// Refresh calls are serialized internally.
type Manager struct {
	gov    *resource.Governor
	limits *resource.LimitsStore
	store  *Store
	opts   Options

	mu   sync.Mutex
	held map[string]*holding
}

// holding is the per-tenant state demand estimation needs between refreshes.
type holding struct {
	slice     Slice
	global    resource.Limits // the global budget the slice was cut from
	lastUsage resource.Usage
	lastTime  time.Time
	primed    bool // lastUsage/lastTime valid (one refresh observed)
	decayed   bool // slice already decayed to the floor after expiring unrenewed
}

// NewManager creates a manager claiming slices for gov (and observing demand
// through gov's Accountant) from the given stores.
func NewManager(gov *resource.Governor, limits *resource.LimitsStore, store *Store, opts Options) *Manager {
	if opts.TTL <= 0 {
		opts.TTL = 10 * time.Second
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.Server == "" {
		opts.Server = "server"
	}
	return &Manager{gov: gov, limits: limits, store: store, opts: opts, held: make(map[string]*holding)}
}

// Server returns the identity this manager writes lease rows under.
func (m *Manager) Server() string { return m.opts.Server }

// Held returns the slice currently held for tenant (zero Slice, false when
// none).
func (m *Manager) Held(tenant string) (Slice, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.held[tenant]
	if !ok {
		return Slice{}, false
	}
	return h.slice, true
}

// Refresh is one heartbeat: reload the limits table, apply it to the
// governor, renew every rate-limited tenant's lease with fresh demand
// observations, and release leases for tenants no longer in the table.
// Returns the number of tenants leased. Errors on individual claims abort
// the refresh (the next heartbeat retries); the limits table application is
// not rolled back — stale slices keep governing until then. A trace bound to
// ctx (obs.WithTrace) receives one obs.SpanLeaseRefresh span per heartbeat
// (lease count or failure cause in the attr) and the heartbeat transactions'
// attempt spans.
func (m *Manager) Refresh(ctx context.Context) (int, error) {
	trace := obs.FromContext(ctx)
	var startNanos int64
	if trace != nil {
		startNanos = m.opts.Clock().UnixNano()
	}
	leased, err := m.refresh(ctx)
	if trace != nil {
		attr := fmt.Sprintf("server=%s leased=%d", m.opts.Server, leased)
		if err != nil {
			attr = fmt.Sprintf("server=%s err=%v", m.opts.Server, err)
		}
		trace.Add(obs.SpanLeaseRefresh, startNanos, m.opts.Clock().UnixNano(), 0, attr)
	}
	return leased, err
}

// refresh is one heartbeat's body.
func (m *Manager) refresh(ctx context.Context) (int, error) {
	all, err := m.limits.All(ctx)
	if err != nil {
		m.mu.Lock()
		m.decayExpiredLocked(m.opts.Clock())
		m.mu.Unlock()
		return 0, err
	}
	m.gov.ApplyLimits(all)

	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.opts.Clock()
	acct := m.gov.Accountant()
	leased := 0
	for tenant, global := range all {
		if global.TxnPerSecond <= 0 && global.BytesPerSecond <= 0 {
			// Nothing to slice: concurrency/weight limits are per-server
			// by design and the limits table already applied them.
			if _, ok := m.held[tenant]; ok {
				m.dropLocked(ctx, tenant)
			}
			continue
		}
		h, ok := m.held[tenant]
		if !ok {
			h = &holding{}
			m.held[tenant] = h
		}
		h.global = global
		usage := acct.Tenant(tenant).Snapshot()
		d := h.demand(usage, now)
		slice, err := m.store.Claim(ctx, tenant, m.opts.Server, global.TxnPerSecond, global.BytesPerSecond, d, now, m.opts.TTL)
		if err != nil {
			// The heartbeat failed mid-claim. Any holding whose row has
			// expired unrenewed may already be reclaimed by peers, so keeping
			// its stale slice would over-grant; decay those to the floor
			// until a heartbeat succeeds again.
			if fdb.IsMaybeCommitted(err) {
				// The claim's commit fate is unknown: the row may now hold
				// the re-sized slice (possibly smaller than what we remember)
				// while we still enforce the old grant — exceeding our actual
				// reservation. The held slice can't be trusted either way, so
				// decay this tenant to the floor immediately.
				m.decayToFloorLocked(tenant, h)
			}
			m.decayExpiredLocked(now)
			return leased, err
		}
		h.slice = slice
		h.lastUsage = usage
		h.lastTime = now
		h.primed = true
		h.decayed = false
		m.gov.SetLease(tenant, leasedLimits(global, slice))
		leased++
	}
	for tenant := range m.held {
		if _, ok := all[tenant]; !ok {
			m.dropLocked(ctx, tenant)
		}
	}
	return leased, nil
}

// decayExpiredLocked shrinks every holding whose lease row has expired
// unrenewed down to the MinFraction floor (the same idle floor a live claim
// is guaranteed). Once a row's TTL passes without a successful renewal, peers
// are entitled to reclaim and re-split the slice — continuing to enforce the
// stale grant here would let cluster-wide enforced rates exceed the global
// budget. The floor keeps a recovering server able to do minimal work; a
// holding that never obtained a slice at all decays immediately, since the
// governor would otherwise enforce the full configured global limits locally
// while peers hold slices of the same budget. Caller holds m.mu.
func (m *Manager) decayExpiredLocked(now time.Time) {
	for tenant, h := range m.held {
		if h.decayed {
			continue
		}
		if h.global.TxnPerSecond <= 0 && h.global.BytesPerSecond <= 0 {
			continue
		}
		if !h.slice.Expires.IsZero() && now.Before(h.slice.Expires) {
			continue // the row is still live; the slice is still ours
		}
		m.decayToFloorLocked(tenant, h)
	}
}

// decayToFloorLocked shrinks one holding to the MinFraction floor and installs
// the floored lease, regardless of the slice's expiry. Used both for expired
// unrenewed rows and for maybe-committed claims whose held slice can no longer
// be trusted. Caller holds m.mu.
func (m *Manager) decayToFloorLocked(tenant string, h *holding) {
	floor := Slice{
		Txn:   h.global.TxnPerSecond * MinFraction,
		Bytes: h.global.BytesPerSecond * MinFraction,
	}
	h.slice = floor
	h.decayed = true
	m.gov.SetLease(tenant, leasedLimits(h.global, floor))
}

// dropLocked releases tenant's lease row and reverts the governor to the
// configured limits. Caller holds m.mu.
func (m *Manager) dropLocked(ctx context.Context, tenant string) {
	_ = m.store.Release(ctx, tenant, m.opts.Server)
	m.gov.ClearLease(tenant)
	delete(m.held, tenant)
}

// Close releases every held lease (the cooperative shutdown path).
func (m *Manager) Close(ctx context.Context) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for tenant := range m.held {
		m.dropLocked(ctx, tenant)
	}
}

// Run refreshes every interval until ctx is done — the lease-aware
// replacement for Governor.WatchLimits. Run it on its own goroutine;
// transient errors are retried on the next tick. Held leases are released
// on exit, under ctx's values without its cancellation.
func (m *Manager) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = m.opts.TTL / 3
	}
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	defer m.Close(context.WithoutCancel(ctx))
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_, _ = m.Refresh(ctx)
		}
	}
}

// demand estimates this server's appetite for the tenant since the last
// refresh: admissions attempted (admitted + rejected) per second for the txn
// rate, bytes moved per second for the byte rate. When admissions were
// rejected the estimate is raised to at least twice the held slice
// (multiplicative increase), so a server throttling its tenant publishes a
// demand spike that pulls budget away from idle peers on the next rebalance.
// The first refresh has no baseline and reports zero demand — the claim
// falls back to an equal split.
func (h *holding) demand(u resource.Usage, now time.Time) Demand {
	if !h.primed {
		return Demand{}
	}
	dt := now.Sub(h.lastTime).Seconds()
	if dt <= 0 {
		return Demand{}
	}
	attempts := float64((u.Admitted - h.lastUsage.Admitted) + (u.Rejected - h.lastUsage.Rejected))
	bytes := float64((u.ReadBytes - h.lastUsage.ReadBytes) + (u.WriteBytes - h.lastUsage.WriteBytes))
	d := Demand{Txn: attempts / dt, Bytes: bytes / dt}
	if u.Rejected > h.lastUsage.Rejected {
		d.Txn = math.Max(d.Txn, h.slice.Txn*2)
		d.Bytes = math.Max(d.Bytes, h.slice.Bytes*2)
	}
	return d
}

// leasedLimits maps a granted slice onto the Limits the local governor
// enforces until the next refresh: leased rates replace the global ones
// (scaled bursts alongside), while concurrency ceilings and weights stay
// per-server. A zero granted slice becomes a tiny positive rate — never 0,
// which Limits reads as unlimited.
func leasedLimits(global resource.Limits, s Slice) resource.Limits {
	l := global
	if global.TxnPerSecond > 0 {
		l.TxnPerSecond = math.Max(s.Txn, minLeasedRate)
		frac := l.TxnPerSecond / global.TxnPerSecond
		l.Burst = scaleBurst(burstOf(global), frac)
	}
	if global.BytesPerSecond > 0 {
		l.BytesPerSecond = math.Max(s.Bytes, minLeasedRate)
		frac := l.BytesPerSecond / global.BytesPerSecond
		l.ByteBurst = int64(scaleBurst(byteBurstOf(global), frac))
	}
	return l
}

// burstOf mirrors Limits' default burst: explicit Burst, else one second of
// rate.
func burstOf(l resource.Limits) float64 {
	if l.Burst > 0 {
		return float64(l.Burst)
	}
	return math.Max(1, math.Ceil(l.TxnPerSecond))
}

// byteBurstOf mirrors Limits' default byte burst.
func byteBurstOf(l resource.Limits) float64 {
	if l.ByteBurst > 0 {
		return float64(l.ByteBurst)
	}
	return math.Max(1, math.Ceil(l.BytesPerSecond))
}

// scaleBurst sizes a slice's burst proportionally, at least 1 so a held
// slice can always admit something once refilled.
func scaleBurst(globalBurst, frac float64) int {
	return int(math.Max(1, math.Round(globalBurst*frac)))
}
