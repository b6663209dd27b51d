package main

import (
	"context"
	"syscall"
	"time"
	"unsafe"

	"recordlayer"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyspace"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/tuple"
)

// window is the price of one simulated round trip: every read batch, GRV and
// committing commit costs exactly one window of virtual time.
const window = 100 * time.Microsecond

// looseLimits bind a rate, a byte rate and a concurrency ceiling to every
// tenant, so admission and byte charging run on every request, while staying
// far above what one client can reach: nothing is ever throttled.
var looseLimits = recordlayer.TenantLimits{
	TxnPerSecond:   1e7,
	Burst:          10_000_000,
	BytesPerSecond: 1e12,
	ByteBurst:      1 << 40,
	MaxConcurrent:  64,
}

// env is one simulated cluster and the server-side objects a CloudKit-style
// request path holds: a Runner with a Governor and an Accountant bound, and
// one StoreProvider for the workload's schema.
type env struct {
	db       *fdb.Database
	acct     *recordlayer.Accountant
	runner   *recordlayer.Runner
	provider *recordlayer.StoreProvider
	// lt receives per-layer timings of the current request; nil when the
	// request is untraced.
	lt *layers
}

// newEnv opens a virtual-clock database and a provider that routes tenant
// IDs to /app/<tenant> record stores.
func newEnv(md *metadata.MetaData, app string) (*env, error) {
	ks, err := keyspace.New(nil,
		keyspace.NewConstant("app", app).Add(
			keyspace.NewDirectory("tenant", keyspace.TypeInt64)))
	if err != nil {
		return nil, err
	}
	provider, err := recordlayer.NewStoreProvider(md, ks, []string{"app", "tenant"}, recordlayer.ProviderOptions{})
	if err != nil {
		return nil, err
	}
	db := fdb.Open(&fdb.Options{Latency: fdb.LatencyModel{
		PerRead: window, PerGRV: window, PerCommit: window, Virtual: true,
	}})
	acct := recordlayer.NewAccountant()
	gov := recordlayer.NewGovernor(acct, recordlayer.GovernorOptions{DefaultLimits: looseLimits})
	return &env{
		db:       db,
		acct:     acct,
		runner:   recordlayer.NewRunner(db, recordlayer.RunnerOptions{Governor: gov, Accountant: acct}),
		provider: provider,
	}, nil
}

// sample is one request's modelled latency: the CPU time of the Runner call
// plus the simulated I/O wait it accrued.
type sample struct {
	cpu  time.Duration
	wait int64
}

func (s sample) micros() float64 { return float64(s.cpu.Nanoseconds()+s.wait) / 1e3 }

// threadCPU reads the calling thread's CPU clock (CLOCK_THREAD_CPUTIME_ID).
// main locks its goroutine to one thread, so the difference across a call is
// the CPU time the call ran, GC assists included. Nothing in a request
// sleeps, so that is its wall time less any time the host spent running
// something else. The clock is valid, so the call cannot fail.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// do runs one tenant request through the Runner: Run when it writes,
// ReadRun otherwise.
func (e *env) do(ctx context.Context, tenant string, write bool, fn recordlayer.TransactFunc) (sample, error) {
	ctx = recordlayer.WithTenant(ctx, tenant)
	var inner time.Duration
	body := fn
	if e.lt != nil {
		body = func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			c0 := threadCPU()
			v, err := fn(ctx, tr)
			inner += threadCPU() - c0
			return v, err
		}
	}
	w0 := e.db.Metrics().SimWaitNanos.Load()
	c0 := threadCPU()
	var err error
	if write {
		_, err = e.runner.Run(ctx, body)
	} else {
		_, err = e.runner.ReadRun(ctx, body)
	}
	s := sample{cpu: threadCPU() - c0, wait: e.db.Metrics().SimWaitNanos.Load() - w0}
	if e.lt != nil {
		sp := &e.lt.spans[spanRunner]
		sp.calls++
		sp.ns += int64(s.cpu - inner)
	}
	return s, err
}

// open opens the tenant's store, timed as the store-open layer.
func (e *env) open(ctx context.Context, tr *fdb.Transaction, tenant int64) (*recordlayer.Store, error) {
	m := e.begin(tr)
	s, err := e.provider.Open(ctx, tr, tenant)
	e.end(m, tr, spanOpen, 1)
	return s, err
}

// load is a point load by primary key, timed as the record-load layer.
func (e *env) load(tr *fdb.Transaction, s *recordlayer.Store, pk tuple.Tuple) (*recordlayer.Record, error) {
	m := e.begin(tr)
	rec, err := s.LoadRecordByKey(pk)
	e.end(m, tr, spanLoad, 1)
	return rec, err
}

// save writes one transaction's records the way a server would: SaveRecord
// for a single record, the pipelined SaveRecords batch otherwise.
func (e *env) save(tr *fdb.Transaction, s *recordlayer.Store, msgs []*message.Message) error {
	m := e.begin(tr)
	var err error
	if len(msgs) == 1 {
		_, err = s.SaveRecord(msgs[0])
	} else {
		_, err = s.SaveRecords(msgs)
	}
	e.end(m, tr, spanSave, len(msgs))
	return err
}
