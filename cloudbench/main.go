// Command cloudbench is the record layer's end-to-end benchmark: one client
// drives CloudKit-shaped traffic through the public façade (Runner with a
// Governor and Accountant, StoreProvider.Open, store or query calls, commit)
// against a simulated cluster on the virtual latency clock. README.md
// describes the workloads and metrics; run.py builds and runs it.
//
//	cloudbench --workload sync_read --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"

	"recordlayer/internal/message"
)

// workload is one traffic mix over a populated cluster and its model.
type workload interface {
	env() *env
	// step generates one request from the workload's seeded stream, runs
	// it and checks the response against the model. A *mismatch error is a
	// wrong answer; any other error is a failed request.
	step(ctx context.Context) (sample, error)
	// audit compares the whole cluster with the model after the run.
	audit(ctx context.Context) error
	// liveBytes is the user payload the live records hold.
	liveBytes() int64
	// writtenBytes is the user payload requests have written.
	writtenBytes() int64
}

// sizes scale a workload's population and its exact phase.
type sizes struct {
	tenants  int // tenant stores
	records  int // records per tenant: a cap for sync_read/device_write, exact for leaderboard
	exactOps int // requests in the exact phase
}

var workloads = map[string]struct {
	build func(context.Context, int64, sizes) (workload, error)
	sizes sizes
}{
	"sync_read":    {newSyncRead, sizes{tenants: 2000, records: 60, exactOps: 20000}},
	"device_write": {newDeviceWrite, sizes{tenants: 2000, records: 60, exactOps: 2000}},
	"leaderboard":  {newLeaderboard, sizes{tenants: 24, records: 100, exactOps: 2000}},
}

func main() {
	var cfg config
	var trace int
	var commit string
	flag.StringVar(&cfg.workload, "workload", "", "sync_read, device_write or leaderboard")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the per-layer traced run")
	flag.StringVar(&commit, "commit", "unknown", "commit or source digest of the code under test")
	flag.Parse()
	w, ok := workloads[cfg.workload]
	if !ok || trace < 0 || trace > 1 || cfg.seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: cloudbench --workload sync_read|device_write|leaderboard --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	cfg.sizes = w.sizes

	fmt.Printf("host %s\n", mustJSON(hostInfo(commit)))
	// One thread runs every request, so threadCPU times requests exactly.
	runtime.LockOSThread()
	rep, err := run(context.Background(), cfg, w.build)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cloudbench:", err)
		os.Exit(1)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && rep.auditErr == nil, rep.attempted, rep.failed, map[string]metric{}}
	for _, m := range rep.metrics {
		fmt.Printf("  %-34s %16.6f %s\n", m.name, m.Value, m.Unit)
		out.Metrics[m.name] = m
	}
	fmt.Println(mustJSON(out))
}

type metric struct {
	name  string
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func mustJSON(v interface{}) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// hostInfo records where a result came from, so results from different
// hosts are never compared as if they were one.
func hostInfo(commit string) map[string]interface{} {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]interface{}{
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu": model, "commit": commit,
	}
}

// percentile is the nearest-rank p-quantile of sorted values, with the
// number of samples above it.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	i := int(float64(len(sorted))*p+0.999999) - 1
	i = max(0, min(i, len(sorted)-1))
	return sorted[i], len(sorted) - 1 - i
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	v, _ := percentile(s, 0.5)
	return v
}

// deck deals request kinds so that every block of ten requests holds each
// kind in its exact share, in seeded random order. Drawing each request's
// kind independently let the number of costly requests in the fixed-length
// exact phase vary from seed to seed: leaderboard's rank lookups, at ~50
// windows each against ~4 for the rest, numbered 537 to 633 in 2 000
// requests, which moved io_windows_per_op by a tenth.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

// newDeck deals kind i in tenths[i] of every ten requests.
func newDeck(rng *rand.Rand, tenths ...int) *deck {
	d := &deck{rng: rng}
	for kind, n := range tenths {
		for j := 0; j < n; j++ {
			d.cards = append(d.cards, kind)
		}
	}
	d.next = len(d.cards)
	return d
}

func (d *deck) deal() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// mismatch is a response that disagrees with the model.
type mismatch struct{ msg string }

func (m *mismatch) Error() string { return "wrong answer: " + m.msg }

func mismatchf(format string, args ...interface{}) error {
	return &mismatch{fmt.Sprintf(format, args...)}
}

func str(m *message.Message, field string) string {
	v, _ := m.Get(field)
	s, _ := v.(string)
	return s
}

func i64(m *message.Message, field string) int64 {
	v, _ := m.Get(field)
	n, _ := v.(int64)
	return n
}

func isMismatch(err error) bool {
	var m *mismatch
	return errors.As(err, &m)
}
