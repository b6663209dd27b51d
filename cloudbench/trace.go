package main

import (
	"fmt"
	"os/exec"
	"strings"
	"time"

	"recordlayer/internal/fdb"
)

// Layers the traced run times. Each span wraps the benchmark's own calls into
// one layer's public functions; nothing inside the program is instrumented.
const (
	spanRunner = iota // Runner.Run/ReadRun call minus the closure's time
	spanOpen          // StoreProvider.Open
	spanLoad          // LoadRecordByKey
	spanSave          // SaveRecord / SaveRecords
	spanRank          // Rank + ScanByRank
	spanText          // TextSearchAll / TextSearchPhrase
	spanCursor        // a sync page or a query, from its first call to the drained cursor
	spanQuery         // ExecuteQuery through the drained cursor
	numSpans
)

// span accumulates the calls into one layer.
type span struct {
	calls int64 // calls made
	units int64 // records saved or rows returned by those calls
	ns    int64 // CPU time inside the calls
	wait  int64 // simulated I/O wait inside the calls
	keys  int64 // simulator keys read inside the calls
}

// layers is one phase's per-layer accounting.
type layers struct {
	spans [numSpans]span
	// highWater sums TxnStats.InFlightHighWater over the transactions that
	// ran a sync page or a query; highWaterTxns counts them.
	highWater, highWaterTxns int64
}

// mark is a span's starting point inside one transaction.
type mark struct {
	cpu  time.Duration
	wait int64
	keys int
}

// begin starts a span; it costs nothing when the request is untraced.
func (e *env) begin(tr *fdb.Transaction) mark {
	if e.lt == nil {
		return mark{}
	}
	st := tr.Stats()
	return mark{cpu: threadCPU(), wait: st.SimWaitNanos, keys: st.KeysRead}
}

// end closes a span started by begin, charging it to layer k.
func (e *env) end(m mark, tr *fdb.Transaction, k int, units int) {
	if e.lt == nil {
		return
	}
	d := threadCPU() - m.cpu
	st := tr.Stats()
	sp := &e.lt.spans[k]
	sp.calls++
	sp.units += int64(units)
	sp.ns += int64(d)
	sp.wait += st.SimWaitNanos - m.wait
	sp.keys += int64(st.KeysRead - m.keys)
}

// endScan closes a sync-page or query span and records the transaction's
// read overlap.
func (e *env) endScan(m mark, tr *fdb.Transaction, k int, rows int) {
	if e.lt == nil {
		return
	}
	if k == spanQuery {
		e.end(m, tr, spanQuery, rows)
	}
	e.end(m, tr, spanCursor, rows)
	e.lt.highWater += int64(tr.Stats().InFlightHighWater)
	e.lt.highWaterTxns++
}

// cpuPackages are the packages cpu_share.* reports, keyed by import path.
// Samples whose innermost project frame lies elsewhere count as "other";
// the benchmark's own frames count as "client".
var cpuPackages = map[string]string{
	"recordlayer":                    "recordlayer",
	"recordlayer/internal/fdb":       "fdb",
	"recordlayer/internal/core":      "core",
	"recordlayer/internal/index":     "index",
	"recordlayer/internal/rankedset": "rankedset",
	"recordlayer/internal/bunched":   "bunched",
	"recordlayer/internal/kvcursor":  "kvcursor",
	"recordlayer/internal/cursor":    "cursor",
	"recordlayer/internal/plan":      "plan",
	"recordlayer/internal/tuple":     "tuple",
	"recordlayer/internal/message":   "message",
	"recordlayer/internal/resource":  "resource",
	"recordlayer/internal/keyexpr":   "keyexpr",
	"recordlayer/internal/keyspace":  "keyspace",
	"recordlayer/internal/query":     "query",
	"recordlayer/internal/text":      "text",
	"recordlayer/internal/subspace":  "subspace",
	"recordlayer/internal/metadata":  "metadata",
	"main":                           "client",
}

// cpuShareNames lists every cpu_share.* bucket in report order.
var cpuShareNames = []string{
	"fdb", "core", "index", "rankedset", "bunched", "kvcursor", "cursor", "plan",
	"tuple", "message", "resource", "recordlayer", "keyexpr", "keyspace", "query",
	"text", "subspace", "metadata", "gc", "client", "other",
}

// gcFrames mark a stack as garbage-collection work wherever they appear.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.markroot", "runtime.scanobject", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.sweepone", "runtime.gcStart",
}

// cpuShares folds a CPU profile by package with `go tool pprof -traces`: a
// stack is GC work if any frame is, and otherwise belongs to its innermost
// frame in a project package, so the allocation and standard-library calls a
// layer makes are charged to that layer.
func cpuShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTraces(out)
}

// foldTraces sums the samples of `pprof -traces` output by bucket. Each
// stack is a block between dashed lines; its first line carries the sample
// value before the innermost frame.
func foldTraces(out []byte) (map[string]float64, error) {
	totals := map[string]float64{}
	var sum, value float64
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			totals[bucket(frames)] += value
			sum += value
		}
		frames = frames[:0]
	}
	inTraces := false
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
			inTraces = true
		case !inTraces || len(fields) == 0:
		case len(frames) == 0:
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			value = d.Seconds()
			frames = append(frames, fields[1])
		default:
			frames = append(frames, fields[0])
		}
	}
	flush()
	if sum == 0 {
		return nil, fmt.Errorf("pprof traces: empty profile")
	}
	for k := range totals {
		totals[k] /= sum
	}
	return totals, nil
}

// bucket names the cpu_share bucket of one stack, innermost frame first.
func bucket(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		if name, ok := cpuPackages[funcPackage(f)]; ok {
			return name
		}
	}
	return "other"
}

// funcPackage extracts the import path from a symbol such as
// "recordlayer/internal/fdb.(*Transaction).Get" or "main.(*env).do".
func funcPackage(sym string) string {
	slash := strings.LastIndexByte(sym, '/')
	dot := strings.IndexByte(sym[slash+1:], '.')
	if dot < 0 {
		return sym
	}
	return sym[:slash+1+dot]
}
