package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"recordlayer/internal/fdb"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
}

// setupReps is how many times a run builds the population; setup_s is the
// median.
const setupReps = 3

// Timed-phase constants.
const (
	// segments splits the timed phase into equal stretches of wall time.
	// Every timing is the median over segments, so a burst of load from
	// elsewhere on the host spoils one segment, not the result.
	segments = 10
	// minSegmentSamples keeps ten latency samples beyond each segment's p99.
	minSegmentSamples = 1000
	// traceBlock is how many requests run traced, then untraced, in turn
	// during the traced run's timed phase, so both halves see the same data.
	traceBlock = 64
)

type report struct {
	attempted, failed int64
	wrong             int64 // failed requests that returned a wrong answer
	firstErr          error
	auditErr          error
	metrics           []metric
	notes             []string
}

func (r *report) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name: name, Value: v, Unit: unit})
}

func (r *report) note(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) count(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if isMismatch(err) {
			r.wrong++
		}
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

// segment is one stretch of the timed phase.
type segment struct {
	wall time.Duration // less the time the host stole
	cpu  time.Duration // process CPU time: the reading at the start until closed
	lat  []float64     // modelled latency of each request, µs
}

// counters are the exact counts the program already exposes.
type counters struct {
	fdb            fdb.MetricsSnapshot
	meteredReads   int64
	meteredWrites  int64
	retries        int64
	planHits       int64
	planMisses     int64
	writtenPayload int64
}

func snapshot(w workload) counters {
	e := w.env()
	c := counters{fdb: e.db.Metrics().Snapshot(), writtenPayload: w.writtenBytes()}
	for _, u := range e.acct.Snapshot() {
		c.meteredReads += u.ReadRecords
		c.meteredWrites += u.WriteRecords
	}
	c.retries = e.runner.Metrics().Retries
	ps := e.provider.PlanCacheStats()
	c.planHits, c.planMisses = ps.Hits, ps.Misses
	return c
}

// run sets the workload up setupReps times, runs its exact and timed
// phases, and audits it. Traced runs time the layers in both phases and
// report per-layer metrics only; untraced runs report end-to-end metrics
// only.
func run(ctx context.Context, cfg config, build func(context.Context, int64, sizes) (workload, error)) (*report, error) {
	var w workload
	var setup []float64
	for i := 0; i < setupReps; i++ {
		w = nil
		debug.FreeOSMemory()
		t0 := readHostTime()
		var err error
		if w, err = build(ctx, cfg.seed, cfg.sizes); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, t0.since().Seconds())
	}
	rep := &report{}
	live := []int64{w.liveBytes()}
	ex, err := exactPhase(ctx, w, cfg, rep)
	if err != nil {
		return nil, err
	}
	live = append(live, w.liveBytes())
	tm, err := timedPhase(ctx, w, cfg, rep)
	if err != nil {
		return nil, err
	}
	live = append(live, w.liveBytes())
	rep.auditErr = w.audit(ctx)

	rep.note("cloudbench workload=%s seed=%d seconds=%g trace=%t", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	rep.note("setup runs (s): %v", setup)
	rep.note("exact phase: %d requests; timed phase: %d requests in %.3f s, %.3f s of it stolen by the host", cfg.sizes.exactOps, tm.ops, tm.elapsed.Seconds(), tm.stolen.Seconds())
	rep.note("live payload (B) after set-up, exact phase, timed phase: %v", live)
	rep.note("failed %d of %d attempted, %d of them wrong answers (failed_frac %g)",
		rep.failed, rep.attempted, rep.wrong, float64(rep.failed)/float64(rep.attempted))
	if rep.firstErr != nil {
		rep.note("first failure: %v", rep.firstErr)
	}
	if rep.auditErr != nil {
		rep.note("audit failed: %v", rep.auditErr)
	} else {
		rep.note("audit and scrub: clean")
	}

	exactOps := float64(cfg.sizes.exactOps)
	if cfg.trace {
		shares, err := cpuShares(tm.profile)
		if err != nil {
			return nil, err
		}
		addLayerMetrics(rep, &ex.layers, &tm.layers, ex.before, ex.after, exactOps)
		for _, name := range cpuShareNames {
			rep.add("cpu_share."+name, shares[name], "share")
		}
		traced := float64(tm.blockOps[1]) / tm.blockTime[1].Seconds()
		untraced := float64(tm.blockOps[0]) / tm.blockTime[0].Seconds()
		rep.add("trace.throughput_ops_s", traced, "ops/s")
		rep.add("trace.untraced_throughput_ops_s", untraced, "ops/s")
		rep.add("trace.overhead_frac", untraced/traced-1, "ratio")
		return rep, nil
	}
	var tput, cpu, p50s, p99s []float64
	minBeyond := int(tm.ops)
	for _, sg := range tm.segs {
		n := float64(len(sg.lat))
		tput = append(tput, n/sg.wall.Seconds())
		cpu = append(cpu, sg.cpu.Seconds()*1e6/n)
		sort.Float64s(sg.lat)
		p50, _ := percentile(sg.lat, 0.50)
		p99, beyond := percentile(sg.lat, 0.99)
		p50s, p99s = append(p50s, p50), append(p99s, p99)
		minBeyond = min(minBeyond, beyond)
	}
	rep.note("latency samples: %d in %d segments, each segment's p99 with at least %d beyond it", tm.ops, len(tm.segs), minBeyond)
	rep.note("throughput drift, last segment ÷ first: %.4f", tput[len(tput)-1]/tput[0])
	d := ex.after.fdb.Delta(ex.before.fdb)
	rep.add("setup_s", median(setup), "s")
	rep.add("throughput_ops_s", median(tput), "ops/s")
	rep.add("latency_p50_us", median(p50s), "us")
	rep.add("latency_p99_us", median(p99s), "us")
	rep.add("io_windows_per_op", float64(d.SimWaitNanos)/float64(window)/exactOps, "windows")
	rep.add("cpu_us_per_op", median(cpu), "us")
	rep.add("allocs_per_op", float64(tm.mallocs)/float64(tm.ops), "allocs")
	rep.add("space_amp", ex.spaceAmp, "ratio")
	rep.add("heap_mb", ex.heapMB, "MB")
	return rep, nil
}

type exactResult struct {
	before, after counters
	layers        layers
	heapMB        float64
	spaceAmp      float64
}

// exactPhase runs a fixed number of requests. Every count — windows,
// simulator keys and bytes, metering, space, heap — is taken over it, so
// the same seed gives the same counts however fast the host is.
func exactPhase(ctx context.Context, w workload, cfg config, rep *report) (*exactResult, error) {
	ex := &exactResult{}
	e := w.env()
	if cfg.trace {
		e.lt = &ex.layers
		defer func() { e.lt = nil }()
	}
	ex.before = snapshot(w)
	for i := 0; i < cfg.sizes.exactOps; i++ {
		_, err := w.step(ctx)
		rep.count(err)
	}
	ex.after = snapshot(w)
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ex.heapMB = float64(ms.HeapAlloc) / 1e6
	kv, err := kvBytes(e.db)
	if err != nil {
		return nil, err
	}
	ex.spaceAmp = float64(kv) / float64(w.liveBytes())
	return ex, nil
}

type timedResult struct {
	segs    []segment
	ops     int64
	elapsed time.Duration
	stolen  time.Duration // of elapsed, taken by the host
	mallocs uint64
	// Traced runs only: the traced requests' layers, the time and count of
	// untraced [0] and traced [1] requests, and the CPU profile's path.
	layers    layers
	blockTime [2]time.Duration
	blockOps  [2]int64
	profile   string
}

// timedPhase continues the request stream for cfg.seconds, split into
// segments. A traced run alternates blocks of traced and untraced requests
// and profiles the CPU throughout.
func timedPhase(ctx context.Context, w workload, cfg config, rep *report) (*timedResult, error) {
	tm := &timedResult{}
	e := w.env()
	if cfg.trace {
		tm.profile = filepath.Join(os.TempDir(), fmt.Sprintf("cpu-%s-%d.pprof", cfg.workload, cfg.seed))
		f, err := os.Create(tm.profile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
		defer func() { e.lt = nil }()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	cur := segment{cpu: cpuTime()}
	start := readHostTime()
	segStart := start
	segLimit := time.Duration(cfg.seconds * float64(time.Second) / segments)
	for len(tm.segs) < segments {
		traced := 0
		if cfg.trace && (tm.ops/traceBlock)%2 == 0 {
			traced = 1
			e.lt = &tm.layers
		} else {
			e.lt = nil
		}
		t0 := time.Now()
		s, err := w.step(ctx)
		now := time.Now()
		rep.count(err)
		tm.ops++
		tm.blockTime[traced] += now.Sub(t0)
		tm.blockOps[traced]++
		cur.lat = append(cur.lat, s.micros())
		if now.Sub(segStart.wall) >= segLimit && len(cur.lat) >= minSegmentSamples {
			c := cpuTime()
			cur.wall, cur.cpu = segStart.since(), c-cur.cpu
			tm.segs = append(tm.segs, cur)
			cur, segStart = segment{cpu: c}, readHostTime()
		}
	}
	tm.elapsed = time.Since(start.wall)
	tm.stolen = tm.elapsed - start.since()
	runtime.ReadMemStats(&ms)
	tm.mallocs = ms.Mallocs - mallocs0
	return tm, nil
}

// addLayerMetrics reports per-layer counts from the exact phase and
// per-layer times from the traced requests of the timed phase.
func addLayerMetrics(rep *report, exact, timed *layers, before, after counters, ops float64) {
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	us := func(k int) float64 { return div(float64(timed.spans[k].ns)/1e3, float64(timed.spans[k].calls)) }
	windows := func(k int) float64 {
		return div(float64(exact.spans[k].wait)/float64(window), float64(exact.spans[k].calls))
	}
	d := after.fdb.Delta(before.fdb)
	written := float64(after.writtenPayload - before.writtenPayload)

	rep.add("runner.overhead_us", us(spanRunner), "us")
	rep.add("runner.retries_per_op", float64(after.retries-before.retries)/ops, "retries/op")
	hits, misses := float64(after.planHits-before.planHits), float64(after.planMisses-before.planMisses)
	rep.add("plancache.hit_ratio", div(hits, hits+misses), "ratio")
	rep.add("query.execute_us", us(spanQuery), "us")
	rep.add("open.us_per_op", us(spanOpen), "us")
	rep.add("open.windows_per_op", windows(spanOpen), "windows")
	rep.add("load.us_per_op", us(spanLoad), "us")
	rep.add("load.windows_per_op", windows(spanLoad), "windows")
	sv := timed.spans[spanSave]
	rep.add("save.us_per_record", div(float64(sv.ns)/1e3, float64(sv.units)), "us")
	rep.add("save.windows_per_txn", windows(spanSave), "windows")
	rep.add("rank.us_per_query", us(spanRank), "us")
	rep.add("rank.windows_per_query", windows(spanRank), "windows")
	rep.add("text.us_per_query", us(spanText), "us")
	rep.add("text.windows_per_query", windows(spanText), "windows")
	es := exact.spans[spanSave]
	rep.add("index.keys_read_per_save", div(float64(es.keys), float64(es.units)), "keys/record")
	cu := timed.spans[spanCursor]
	rep.add("cursor.us_per_row", div(float64(cu.ns)/1e3, float64(cu.units)), "us")
	rep.add("cursor.windows_per_page", windows(spanCursor), "windows")
	ec := exact.spans[spanCursor]
	rep.add("cursor.keys_read_per_row", div(float64(ec.keys), float64(ec.units)), "keys/row")
	rep.add("fdb.inflight_high_water", div(float64(exact.highWater), float64(exact.highWaterTxns)), "reads")
	rep.add("resource.metered_read_frac", div(float64(after.meteredReads-before.meteredReads), float64(d.KeysRead)), "ratio")
	rep.add("resource.metered_write_frac", div(float64(after.meteredWrites-before.meteredWrites), float64(d.KeysWritten)), "ratio")
	rep.add("fdb.keys_read_per_op", float64(d.KeysRead)/ops, "keys/op")
	rep.add("fdb.bytes_read_per_op", float64(d.BytesRead)/ops, "B/op")
	rep.add("fdb.keys_written_per_op", float64(d.KeysWritten)/ops, "keys/op")
	rep.add("fdb.bytes_written_per_user_byte", div(float64(d.BytesWritten), written), "B/B")
	rep.add("fdb.commits_per_op", float64(d.Commits)/ops, "commits/op")
	rep.add("fdb.grv_per_op", float64(d.GRVCalls)/ops, "grv/op")
}

// kvBytes totals the key and value bytes stored in the simulator, reading
// in bounded transactions.
func kvBytes(db *fdb.Database) (int64, error) {
	var total int64
	begin, end := []byte{}, []byte{0xff}
	for {
		kvs, more, err := db.CreateTransaction().GetRange(begin, end, fdb.RangeOptions{Limit: 10_000})
		if err != nil {
			return 0, fmt.Errorf("space scan: %w", err)
		}
		for _, kv := range kvs {
			total += int64(len(kv.Key) + len(kv.Value))
		}
		if !more || len(kvs) == 0 {
			return total, nil
		}
		begin = append(append([]byte{}, kvs[len(kvs)-1].Key...), 0)
	}
}

// hostTime is a wall-clock reading together with the time the host had
// stolen from this machine by then.
type hostTime struct {
	wall  time.Time
	steal time.Duration
}

func readHostTime() hostTime { return hostTime{time.Now(), stolen()} }

// since is the wall time from h until now, less the time the host stole
// from a CPU meanwhile: the time the machine actually ran. On a shared
// virtual machine the host takes the CPUs away for stretches of varying
// length, which wall time alone would charge to the code under test.
func (h hostTime) since() time.Duration {
	return time.Since(h.wall) - (stolen() - h.steal)
}

// stolen is the time the hypervisor has taken from this machine so far, per
// CPU: the steal column of /proc/stat (USER_HZ ticks of 10 ms) over the
// number of CPUs. It is 0 where the kernel does not report steal.
func stolen() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	return parseSteal(string(b))
}

func parseSteal(stat string) time.Duration {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	cpus := strings.Count(stat, "\ncpu")
	if len(f) < 9 || f[0] != "cpu" || cpus == 0 {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond / time.Duration(cpus)
}

// cpuTime is the process's user plus system CPU time, GC included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
