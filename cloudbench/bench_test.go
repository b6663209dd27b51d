package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"
	"time"
)

// small keeps the tests to a few seconds: tiny populations, short phases.
var small = map[string]sizes{
	"sync_read":    {tenants: 40, records: 20, exactOps: 400},
	"device_write": {tenants: 40, records: 20, exactOps: 150},
	"leaderboard":  {tenants: 2, records: 60, exactOps: 150},
}

func build(t *testing.T, name string, seed int64) workload {
	t.Helper()
	w, err := workloads[name].build(context.Background(), seed, small[name])
	if err != nil {
		t.Fatalf("%s: setup: %v", name, err)
	}
	return w
}

// exactCounts runs n requests and returns every count the exact phase
// reports, with the space scan, and the number of failed requests.
func exactCounts(t *testing.T, w workload, n int) (map[string]float64, int) {
	t.Helper()
	ctx := context.Background()
	before := snapshot(w)
	failed := 0
	for i := 0; i < n; i++ {
		if _, err := w.step(ctx); err != nil {
			failed++
		}
	}
	after := snapshot(w)
	kv, err := kvBytes(w.env().db)
	if err != nil {
		t.Fatal(err)
	}
	d := after.fdb.Delta(before.fdb)
	return map[string]float64{
		"io_windows":     float64(d.SimWaitNanos) / float64(window),
		"space_amp":      float64(kv) / float64(w.liveBytes()),
		"keys_read":      float64(d.KeysRead),
		"bytes_read":     float64(d.BytesRead),
		"keys_written":   float64(d.KeysWritten),
		"bytes_written":  float64(d.BytesWritten),
		"commits":        float64(d.Commits),
		"grv":            float64(d.GRVCalls),
		"metered_reads":  float64(after.meteredReads - before.meteredReads),
		"metered_writes": float64(after.meteredWrites - before.meteredWrites),
	}, failed
}

// inputs digests what a seed generated: the population the model holds.
func inputs(w workload) uint64 {
	h := fnv.New64a()
	switch w := w.(type) {
	case syncRead:
		fmt.Fprint(h, digestCloud(w.cloud))
	case *deviceWrite:
		fmt.Fprint(h, digestCloud(w.cloud))
	case *leaderboard:
		for _, g := range w.games {
			for _, p := range g.players {
				fmt.Fprint(h, p.id, p.score, p.bio)
			}
		}
	}
	return h.Sum64()
}

func digestCloud(c *cloud) uint64 {
	h := fnv.New64a()
	for _, t := range c.tenants {
		for _, n := range t.notes {
			fmt.Fprint(h, t.id, n.name, n.zone, n.modified, n.sum)
		}
	}
	return h.Sum64()
}

// TestDeterminism: the same seed repeats every exact count; another seed
// generates other inputs.
func TestDeterminism(t *testing.T) {
	for name, sz := range small {
		t.Run(name, func(t *testing.T) {
			a, b := build(t, name, 7), build(t, name, 7)
			if inputs(a) != inputs(b) {
				t.Fatal("same seed generated different populations")
			}
			ca, fa := exactCounts(t, a, sz.exactOps)
			cb, fb := exactCounts(t, b, sz.exactOps)
			if fa != 0 || fb != 0 {
				t.Fatalf("failed requests: %d and %d", fa, fb)
			}
			if !reflect.DeepEqual(ca, cb) {
				t.Fatalf("same seed, different counts:\n%v\n%v", ca, cb)
			}
			if inputs(build(t, name, 8)) == inputs(a) {
				t.Fatal("a different seed generated the same population")
			}
		})
	}
}

// TestDeviceWriteSteadySize: device_write deletes as it inserts, so no store
// grows past its set-up size by more than one transaction writes, and the
// audit still matches the model.
func TestDeviceWriteSteadySize(t *testing.T) {
	w := build(t, "device_write", 5).(*deviceWrite)
	if _, failed := exactCounts(t, w, 4*small["device_write"].exactOps); failed != 0 {
		t.Fatalf("%d failed requests", failed)
	}
	for _, tn := range w.tenants {
		if len(tn.notes) > max(tn.base, 16) {
			t.Fatalf("%s grew from %d to %d records", tn.key, tn.base, len(tn.notes))
		}
	}
	if err := w.audit(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestPlantedWrongExpectation: a model that disagrees with the store makes
// requests fail as wrong answers and the audit fail.
func TestPlantedWrongExpectation(t *testing.T) {
	for name, sz := range small {
		t.Run(name, func(t *testing.T) {
			w := build(t, name, 3)
			switch w := w.(type) {
			case syncRead:
				plantCloud(w.cloud)
			case *deviceWrite:
				plantCloud(w.cloud)
			case *leaderboard:
				for _, g := range w.games {
					for _, p := range g.players {
						p.bio += " planted"
					}
				}
			}
			ctx := context.Background()
			mismatches := 0
			for i := 0; i < sz.exactOps; i++ {
				if _, err := w.step(ctx); err != nil {
					if !isMismatch(err) {
						t.Fatalf("request failed with %v, want a wrong answer", err)
					}
					mismatches++
				}
			}
			if name != "device_write" && mismatches == 0 {
				t.Error("no request noticed the planted expectation")
			}
			if err := w.audit(ctx); err == nil {
				t.Error("the audit passed a planted expectation")
			}
		})
	}
}

// plantCloud changes every record's expected body.
func plantCloud(c *cloud) {
	for _, tn := range c.tenants {
		for _, n := range tn.notes {
			n.sum++
		}
	}
}

// TestFoldTraces checks the CPU-share folding on pprof's -traces layout.
func TestFoldTraces(t *testing.T) {
	out := `File: cloudbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.mallocgc
             recordlayer/internal/tuple.Tuple.Pack
             recordlayer/internal/core.(*Store).SaveRecord
             main.(*env).save
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   runtime.futex
-----------+-------------------------------------------------------
`
	got, err := foldTraces([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"tuple": 0.6, "gc": 0.2, "other": 0.2}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestParseSteal reads the steal column of /proc/stat per CPU.
func TestParseSteal(t *testing.T) {
	stat := "cpu  701169 22 39313 781311 357 0 5426 54324 0 0\n" +
		"cpu0 350167 9 19705 390914 220 0 2790 27416 0 0\n" +
		"cpu1 351002 13 19608 390396 136 0 2636 26907 0 0\n" +
		"intr 1 2 3\n"
	if got, want := parseSteal(stat), 271620*time.Millisecond; got != want {
		t.Fatalf("steal %v, want %v", got, want)
	}
	if got := parseSteal("cpu  1 2 3 4\ncpu0 1 2 3 4\n"); got != 0 {
		t.Fatalf("steal %v from a kernel that does not report it, want 0", got)
	}
}
