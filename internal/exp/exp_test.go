package exp

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestHistogram(t *testing.T) {
	h := NewDecadeHistogram(4)
	for _, v := range []float64{5, 50, 50, 500, 5000} {
		h.Add(v)
	}
	rows := h.Rows()
	if rows[0].Fraction != 0.2 || rows[1].Fraction != 0.4 {
		t.Fatalf("fractions: %+v", rows[:2])
	}
	if rows[len(rows)-1].CumFraction < 0.999 {
		t.Fatalf("cumulative must reach 1: %v", rows[len(rows)-1].CumFraction)
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := Percentile(vals, 50); p < 5 || p > 6 {
		t.Fatalf("median: %v", p)
	}
	if p := Percentile(vals, 100); p != 10 {
		t.Fatalf("max: %v", p)
	}
	if p := Percentile(nil, 50); p != 0 {
		t.Fatalf("empty: %v", p)
	}
}

func TestTableRendering(t *testing.T) {
	var buf bytes.Buffer
	tbl := &Table{Header: []string{"a", "b"}}
	tbl.Add("x", 1.5)
	tbl.Add("longer", 42)
	tbl.Write(&buf)
	out := buf.String()
	if !strings.Contains(out, "longer") || !strings.Contains(out, "1.50") {
		t.Fatalf("table output:\n%s", out)
	}
}

// TestFigure1Shape verifies the calibrated Figure 1 reproduction: most
// stores are tiny, most bytes are in large stores.
func TestFigure1Shape(t *testing.T) {
	res := RunFigure1(nil, 50_000)
	if res.FractionUnder1KB < 0.5 {
		t.Fatalf("stores under 1 kB: %.2f (paper: substantial majority)", res.FractionUnder1KB)
	}
	if res.BytesFractionOver1MB < 0.5 {
		t.Fatalf("bytes in stores over 1 MB: %.2f (paper: bytes concentrate in large stores)", res.BytesFractionOver1MB)
	}
}

// TestTable1Shape verifies the measured evidence matches the paper's
// qualitative comparison.
func TestTable1Shape(t *testing.T) {
	res, err := RunTable1(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CassandraCASFailures == 0 {
		t.Fatal("Cassandra zone writers should CAS-conflict")
	}
	if res.RecordLayerConflicts != 0 {
		t.Fatal("Record Layer same-zone writers should not conflict")
	}
	if !res.CassandraZoneCapped || !res.RecordLayerLargeZoneOK {
		t.Fatalf("zone size rows: capped=%v rlOK=%v", res.CassandraZoneCapped, res.RecordLayerLargeZoneOK)
	}
	if res.SolrFreshHits != 0 || res.RecordLayerFreshHits == 0 {
		t.Fatalf("index consistency rows: solr=%d rl=%d", res.SolrFreshHits, res.RecordLayerFreshHits)
	}
}

// TestTable2Shape verifies the bunching space savings: bunch-20 uses far
// fewer pairs and fewer bytes per document than unbunched.
func TestTable2Shape(t *testing.T) {
	res, err := RunTable2(context.Background(), nil, 40, []int{1, 20})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Corpus
	if c.MeanUniqueTokens < 250 || c.MeanUniqueTokens > 650 {
		t.Fatalf("unique tokens/doc: %.1f (target ~432)", c.MeanUniqueTokens)
	}
	if c.MeanBytes < 3000 || c.MeanBytes > 9000 {
		t.Fatalf("bytes/doc: %.0f (target ~5000)", c.MeanBytes)
	}
	unb, bun := res.PerBunchSize[0], res.PerBunchSize[1]
	if bun.PhysicalPairs >= unb.PhysicalPairs {
		t.Fatalf("bunching did not reduce pairs: %d vs %d", bun.PhysicalPairs, unb.PhysicalPairs)
	}
	if bun.BytesPerDoc >= unb.BytesPerDoc {
		t.Fatalf("bunching did not reduce bytes/doc: %.0f vs %.0f", bun.BytesPerDoc, unb.BytesPerDoc)
	}
	if bun.MeanBunch <= 1.5 {
		t.Fatalf("mean bunch size: %.2f (paper: ~4.7 with size 20)", bun.MeanBunch)
	}
}

// TestOverheadsShape verifies the §8.2 shape: overhead keys are a minority
// of reads and index writes are a few per record.
func TestOverheadsShape(t *testing.T) {
	res, err := RunOverheads(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueryKeysRead <= 0 || res.QueryOverheadFrac > 0.6 {
		t.Fatalf("query overhead: %.0f keys, %.0f%%", res.QueryKeysRead, res.QueryOverheadFrac*100)
	}
	if res.GetKeysRead < 2 { // header + record at least
		t.Fatalf("get keys read: %.1f", res.GetKeysRead)
	}
	if res.SaveIndexPerRecord < 1 || res.SaveIndexPerRecord > 10 {
		t.Fatalf("index keys per record: %.1f (paper ~4)", res.SaveIndexPerRecord)
	}
}

// TestTxnSizesShape verifies the §2 distribution shape: p99 is several times
// the median, in the single-digit-to-tens-of-kB range.
func TestTxnSizesShape(t *testing.T) {
	res, err := RunTxnSizes(nil, 150)
	if err != nil {
		t.Fatal(err)
	}
	if res.MedianBytes < 1000 || res.MedianBytes > 30_000 {
		t.Fatalf("median txn size: %.0f (paper ~7 kB)", res.MedianBytes)
	}
	if res.P99Bytes < 2*res.MedianBytes {
		t.Fatalf("p99 %.0f should be several times the median %.0f", res.P99Bytes, res.MedianBytes)
	}
}

func TestFigure5Walkthrough(t *testing.T) {
	res, err := RunFigure5(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.RankOfE != 4 {
		t.Fatalf("rank(e) = %d, paper says 4", res.RankOfE)
	}
	if res.Layers[1]["b"] != 2 || res.Layers[1]["d"] != 3 || res.Layers[2]["a"] != 6 {
		t.Fatalf("layers: %+v", res.Layers)
	}
}

func TestAtomicVsRMWShape(t *testing.T) {
	res, err := RunAtomicVsRMW(context.Background(), nil, 4, 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.AtomicConflicts != 0 {
		t.Fatalf("atomic adds conflicted: %d", res.AtomicConflicts)
	}
	if res.RMWConflicts == 0 {
		t.Fatal("read-modify-write under concurrency should conflict")
	}
}

func TestVersionCacheShape(t *testing.T) {
	res, err := RunVersionCache(context.Background(), nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.GRVWithCache >= res.GRVWithoutCache {
		t.Fatalf("cache saved no GRV calls: %d vs %d", res.GRVWithCache, res.GRVWithoutCache)
	}
}

func TestSyncAblationShape(t *testing.T) {
	res, err := RunSyncAblation(context.Background(), nil, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.CounterCASFailures == 0 {
		t.Fatal("update-counter sync should serialize writers")
	}
	if res.VersionIndexConflicts != 0 {
		t.Fatalf("version-index sync conflicts: %d", res.VersionIndexConflicts)
	}
	if !res.MoveOrderPreserved {
		t.Fatal("cross-cluster move broke sync order")
	}
}
