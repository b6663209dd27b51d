package exp

import (
	"context"
	"fmt"
	"io"

	"recordlayer/internal/cassandra"
	"recordlayer/internal/cloudkit"
	"recordlayer/internal/fdb"
	"recordlayer/internal/message"
)

// SyncAblationResult compares sync implementations (ablation A4, §8.1).
type SyncAblationResult struct {
	Writers, OpsPerWriter int
	CounterCASFailures    int64
	VersionIndexConflicts int64
	MoveOrderPreserved    bool
}

// RunSyncAblation measures the §8.1 high-concurrency-zones claim: the legacy
// update-counter sync index serializes every zone write (CAS failures grow
// with concurrency), while the VERSION-index sync creates no conflicts
// between writers of different records; and the (incarnation, version)
// scheme keeps the change feed ordered across a cross-cluster move.
func RunSyncAblation(ctx context.Context, w io.Writer, writers, ops int) (SyncAblationResult, error) {
	res := SyncAblationResult{Writers: writers, OpsPerWriter: ops}

	// Legacy: contended CAS on one zone. Writers interleave deterministically
	// — each round, every writer reads the counter before any of them writes,
	// modeling concurrent devices hitting the same zone.
	cas := cassandra.NewCluster(&cassandra.Options{PartitionLimitBytes: 1 << 24})
	for j := 0; j < ops; j++ {
		tokens := make([]int64, writers)
		for i := range tokens {
			tokens[i] = cas.ZoneCounter("z")
		}
		for i := 0; i < writers; i++ {
			for {
				_, err := cas.SaveBatch("z", tokens[i], []cassandra.Row{{
					Name: fmt.Sprintf("w%d-%d", i, j), Fields: map[string]string{"t": "x"},
				}})
				if err == nil {
					break
				}
				if _, ok := err.(*cassandra.CASError); !ok {
					return res, err
				}
				tokens[i] = cas.ZoneCounter("z")
			}
		}
	}
	_, res.CounterCASFailures = cas.Stats()

	// Version index: the same interleaved write pattern through the Record
	// Layer — per round, every writer starts its transaction before any of
	// them commits.
	db := fdb.Open(nil)
	base := db.Metrics().Snapshot()
	svc, err := cloudkit.NewService(21)
	if err != nil {
		return res, err
	}
	ct, err := svc.DefineContainer(cloudkit.ContainerSchema{
		Name: "sync.app",
		Types: []cloudkit.RecordTypeDef{{Name: "Item", Fields: []*message.FieldDescriptor{
			message.Field("t", 1, message.TypeString),
		}}},
	})
	if err != nil {
		return res, err
	}
	// Seed the store so the probe measures record writes, not creation.
	_, err = db.Transact(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := svc.UserStore(tr, ct, 1)
		if err != nil {
			return nil, err
		}
		_, err = svc.SaveRecord(store, "Item", cloudkit.Record{
			Zone: "seed-zone", Name: "seed", Fields: map[string]interface{}{"t": "x"},
		})
		return nil, err
	})
	if err != nil {
		return res, err
	}
	for j := 0; j < ops; j++ {
		txns := make([]*fdb.Transaction, writers)
		for i := 0; i < writers; i++ {
			txns[i] = db.CreateTransaction()
			store, err := svc.UserStore(txns[i], ct, 1)
			if err != nil {
				return res, err
			}
			if _, err := svc.SaveRecord(store, "Item", cloudkit.Record{
				Zone: "z", Name: fmt.Sprintf("w%d-%d", i, j),
				Fields: map[string]interface{}{"t": "x"},
			}); err != nil {
				return res, err
			}
		}
		for i := 0; i < writers; i++ {
			if err := txns[i].Commit(); err != nil {
				if !fdb.IsRetryable(err) {
					return res, err
				}
				// Retry the conflicting save standalone.
				i := i
				_, err := db.Transact(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
					store, err := svc.UserStore(tr, ct, 1)
					if err != nil {
						return nil, err
					}
					_, err = svc.SaveRecord(store, "Item", cloudkit.Record{
						Zone: "z", Name: fmt.Sprintf("w%d-%d", i, j),
						Fields: map[string]interface{}{"t": "x"},
					})
					return nil, err
				})
				if err != nil {
					return res, err
				}
			}
		}
	}
	res.VersionIndexConflicts = db.Metrics().Snapshot().Delta(base).Conflicts

	// Cross-cluster move ordering.
	dst := fdb.Open(nil)
	if err := svc.MoveUser(ctx, db, dst, ct, 1); err != nil {
		return res, err
	}
	_, err = dst.Transact(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := svc.UserStore(tr, ct, 1)
		if err != nil {
			return nil, err
		}
		_, err = svc.SaveRecord(store, "Item", cloudkit.Record{
			Zone: "z", Name: "post-move", Fields: map[string]interface{}{"t": "x"},
		})
		return nil, err
	})
	if err != nil {
		return res, err
	}
	_, err = dst.ReadTransact(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := svc.UserStore(tr, ct, 1)
		if err != nil {
			return nil, err
		}
		sync, err := svc.SyncZone(store, "z", nil, writers*ops+10)
		if err != nil {
			return nil, err
		}
		n := len(sync.Changes)
		res.MoveOrderPreserved = n == writers*ops+1 &&
			sync.Changes[n-1].RecordName == "post-move" &&
			sync.Changes[n-1].Incarnation == 1 &&
			sync.Changes[n-2].Incarnation == 0
		return nil, nil
	})
	if err != nil {
		return res, err
	}

	if w != nil {
		fmt.Fprintf(w, "Ablation A4: sync via update counter vs VERSION index (%d writers x %d ops, one zone)\n\n",
			writers, ops)
		t := &Table{Header: []string{"sync implementation", "write conflicts"}}
		t.Add("legacy per-zone update counter (CAS)", res.CounterCASFailures)
		t.Add("VERSION index (§8.1)", res.VersionIndexConflicts)
		t.Write(w)
		fmt.Fprintf(w, "\nchange order preserved across cross-cluster move (incarnation scheme): %v\n",
			res.MoveOrderPreserved)
	}
	return res, nil
}
