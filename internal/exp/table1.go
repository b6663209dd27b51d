package exp

import (
	"context"
	"fmt"
	"io"

	"recordlayer/internal/cassandra"
	"recordlayer/internal/cloudkit"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
)

// Table1Result holds the measured evidence behind each row of Table 1.
type Table1Result struct {
	// Concurrency: conflicts when two writers touch different records of the
	// same zone.
	CassandraCASFailures int64
	RecordLayerConflicts int64
	// Zone size: whether each system accepted a zone larger than the
	// Cassandra partition ceiling.
	CassandraZoneCapped    bool
	RecordLayerLargeZoneOK bool
	// Index consistency: results visible immediately after the write.
	SolrFreshHits        int
	RecordLayerFreshHits int
}

func ckSchema() cloudkit.ContainerSchema {
	return cloudkit.ContainerSchema{
		Name: "bench.app",
		Types: []cloudkit.RecordTypeDef{{
			Name: "Item",
			Fields: []*message.FieldDescriptor{
				message.Field("title", 1, message.TypeString),
				message.Field("body", 2, message.TypeString),
			},
		}},
		Indexes: nil,
	}
}

// RunTable1 regenerates Table 1 (CloudKit on Cassandra vs on the Record
// Layer) with measured evidence for each row: transaction scope, intra-zone
// concurrency, zone size limits, and index consistency.
func RunTable1(ctx context.Context, w io.Writer) (Table1Result, error) {
	var res Table1Result

	// --- Concurrency: two concurrent writers, different records, one zone.
	cas := cassandra.NewCluster(&cassandra.Options{PartitionLimitBytes: 1 << 20})
	base := cas.ZoneCounter("z")
	if _, err := cas.SaveBatch("z", base, []cassandra.Row{{Name: "r1", Fields: map[string]string{"t": "a"}}}); err != nil {
		return res, err
	}
	if _, err := cas.SaveBatch("z", base, []cassandra.Row{{Name: "r2", Fields: map[string]string{"t": "b"}}}); err == nil {
		return res, fmt.Errorf("expected CAS failure")
	}
	_, res.CassandraCASFailures = cas.Stats()

	db := fdb.Open(nil)
	svc, err := cloudkit.NewService(3)
	if err != nil {
		return res, err
	}
	ct, err := svc.DefineContainer(ckSchema())
	if err != nil {
		return res, err
	}
	// Seed the user store first so the concurrency probe measures record
	// writes, not store creation (interning + header writes collide once).
	_, err = db.Transact(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := svc.UserStore(tr, ct, 1)
		if err != nil {
			return nil, err
		}
		_, err = svc.SaveRecord(store, "Item", cloudkit.Record{Zone: "z", Name: "seed",
			Fields: map[string]interface{}{"title": "s"}})
		return nil, err
	})
	if err != nil {
		return res, err
	}
	t1 := db.CreateTransaction()
	t2 := db.CreateTransaction()
	s1, err := svc.UserStore(t1, ct, 1)
	if err != nil {
		return res, err
	}
	s2, err := svc.UserStore(t2, ct, 1)
	if err != nil {
		return res, err
	}
	if _, err := svc.SaveRecord(s1, "Item", cloudkit.Record{Zone: "z", Name: "r1",
		Fields: map[string]interface{}{"title": "a"}}); err != nil {
		return res, err
	}
	if _, err := svc.SaveRecord(s2, "Item", cloudkit.Record{Zone: "z", Name: "r2",
		Fields: map[string]interface{}{"title": "b"}}); err != nil {
		return res, err
	}
	if err := t1.Commit(); err != nil {
		return res, err
	}
	if err := t2.Commit(); err != nil {
		if fdb.IsConflict(err) {
			res.RecordLayerConflicts++
		} else {
			return res, err
		}
	}

	// --- Zone size: write past the Cassandra partition ceiling.
	casSmall := cassandra.NewCluster(&cassandra.Options{PartitionLimitBytes: 4 * 1024})
	counter := int64(0)
	for i := 0; ; i++ {
		var err error
		counter, err = casSmall.SaveBatch("big", counter, []cassandra.Row{{
			Name: fmt.Sprintf("r%d", i), Fields: map[string]string{"body": string(make([]byte, 256))},
		}})
		if err != nil {
			if _, ok := err.(*cassandra.PartitionFullError); ok {
				res.CassandraZoneCapped = true
			}
			break
		}
		if i > 10_000 {
			break
		}
	}
	// The Record Layer zone grows with the cluster: write the same volume
	// and more into one zone.
	res.RecordLayerLargeZoneOK = true
	for i := 0; i < 64; i++ {
		i := i
		_, err := db.Transact(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			store, err := svc.UserStore(tr, ct, 2)
			if err != nil {
				return nil, err
			}
			_, err = svc.SaveRecord(store, "Item", cloudkit.Record{
				Zone: "big", Name: fmt.Sprintf("r%d", i),
				Fields: map[string]interface{}{"body": string(make([]byte, 256))},
			})
			return nil, err
		})
		if err != nil {
			res.RecordLayerLargeZoneOK = false
			break
		}
	}

	// --- Index consistency: query immediately after writing.
	if _, err := cas.SaveBatch("q", cas.ZoneCounter("q"), []cassandra.Row{{
		Name: "find", Fields: map[string]string{"title": "needle"},
	}}); err != nil {
		return res, err
	}
	res.SolrFreshHits = len(cas.Solr().Query("q", "title", "needle")) // stale: 0

	ct2, err := svc.DefineContainer(cloudkit.ContainerSchema{
		Name: "bench.app2",
		Types: []cloudkit.RecordTypeDef{{Name: "Item", Fields: []*message.FieldDescriptor{
			message.Field("title", 1, message.TypeString),
		}}},
		Indexes: []*metadata.Index{
			{Name: "by_title", Type: metadata.IndexValue,
				Expression: keyexpr.Field("title"), RecordTypes: []string{"Item"}},
		},
	})
	if err != nil {
		return res, err
	}
	// Write, commit, then query immediately: the user-defined index is
	// maintained in the writing transaction, so the very next read sees it —
	// unlike Solr, which stays stale until its asynchronous update runs.
	_, err = db.Transact(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := svc.UserStore(tr, ct2, 3)
		if err != nil {
			return nil, err
		}
		_, err = svc.SaveRecord(store, "Item", cloudkit.Record{Zone: "q", Name: "find",
			Fields: map[string]interface{}{"title": "needle"}})
		return nil, err
	})
	if err != nil {
		return res, err
	}
	_, err = db.ReadTransact(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := svc.UserStore(tr, ct2, 3)
		if err != nil {
			return nil, err
		}
		entries, err := store.ScanIndex("by_title", rangeForString("needle"), scanOpts())
		if err != nil {
			return nil, err
		}
		hits := 0
		for {
			r, err := entries.Next()
			if err != nil {
				return nil, err
			}
			if !r.OK {
				break
			}
			hits++
		}
		res.RecordLayerFreshHits = hits
		return nil, nil
	})
	if err != nil {
		return res, err
	}

	if w != nil {
		fmt.Fprintf(w, "Table 1: CloudKit on Cassandra vs on the Record Layer\n\n")
		t := &Table{Header: []string{"", "Cassandra", "Record Layer", "measured evidence"}}
		t.Add("Transactions", "Within zone", "Within cluster",
			"legacy batches CAS a per-zone counter; RL transactions span the store")
		t.Add("Concurrency", "Zone level", "Record level",
			fmt.Sprintf("same-zone writers: CAS failures=%d vs RL conflicts=%d",
				res.CassandraCASFailures, res.RecordLayerConflicts))
		t.Add("Zone size limit", "Partition size", "Cluster size",
			fmt.Sprintf("partition capped=%v; RL zone kept growing=%v",
				res.CassandraZoneCapped, res.RecordLayerLargeZoneOK))
		t.Add("Index consistency", "Eventual", "Transactional",
			fmt.Sprintf("fresh query hits: Solr=%d vs RL=%d",
				res.SolrFreshHits, res.RecordLayerFreshHits))
		t.Add("Indexes stored in", "Solr", "FoundationDB", "by construction")
		t.Write(w)
	}
	return res, nil
}
