// CloudKit sync example (§8): billions-of-databases multi-tenancy in
// miniature — per-user record stores, zones, incremental device sync via the
// VERSION index, and a cross-cluster user move that preserves change order
// through the incarnation scheme. Transactions run through the façade's
// Runner, one per cluster, with bounded retries and context propagation.
package main

import (
	"context"
	"fmt"
	"log"

	"recordlayer"
	"recordlayer/internal/cloudkit"
	"recordlayer/internal/fdb"
	"recordlayer/internal/message"
)

func main() {
	clusterA := fdb.Open(nil)
	clusterB := fdb.Open(nil)
	runnerA := recordlayer.NewRunner(clusterA, recordlayer.RunnerOptions{})
	runnerB := recordlayer.NewRunner(clusterB, recordlayer.RunnerOptions{})
	ctx := context.Background()

	svc, err := cloudkit.NewService(42)
	if err != nil {
		log.Fatal(err)
	}
	notes, err := svc.DefineContainer(cloudkit.ContainerSchema{
		Name: "com.example.notes",
		Types: []cloudkit.RecordTypeDef{{
			Name: "Note",
			Fields: []*message.FieldDescriptor{
				message.Field("title", 1, message.TypeString),
				message.Field("body", 2, message.TypeString),
			},
		}},
	})
	if err != nil {
		log.Fatal(err)
	}

	save := func(r *recordlayer.Runner, user int64, zone, name, title string) {
		_, err := r.Run(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			store, err := svc.UserStore(tr, notes, user)
			if err != nil {
				return nil, err
			}
			_, err = svc.SaveRecord(store, "Note", cloudkit.Record{
				Zone: zone, Name: name,
				Fields: map[string]interface{}{"title": title},
			})
			return nil, err
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	// Two users on cluster A; their record stores are disjoint subspaces.
	save(runnerA, 1, "personal", "groceries", "milk, eggs")
	save(runnerA, 1, "personal", "ideas", "record layer in go")
	save(runnerA, 1, "work", "standup", "status notes")
	save(runnerA, 2, "personal", "groceries", "coffee")

	// Device sync: page through user 1's personal zone (§8.1).
	sync := func(r *recordlayer.Runner, user int64, zone string, cont []byte) *cloudkit.SyncResult {
		res, err := r.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			store, err := svc.UserStore(tr, notes, user)
			if err != nil {
				return nil, err
			}
			return svc.SyncZone(store, zone, cont, 10)
		})
		if err != nil {
			log.Fatal(err)
		}
		return res.(*cloudkit.SyncResult)
	}
	res := sync(runnerA, 1, "personal", nil)
	fmt.Println("device catches up on user 1 / personal:")
	for _, c := range res.Changes {
		fmt.Printf("  change: %s (incarnation %d)\n", c.RecordName, c.Incarnation)
	}
	checkpoint := res.Continuation

	// The user moves to cluster B: copy the store's key range, bump the
	// incarnation (§8.1). Cluster B's commit versions are uncorrelated with
	// cluster A's — smaller, even — yet sync order is preserved.
	if err := svc.MoveUser(ctx, clusterA, clusterB, notes, 1); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nuser 1 moved from cluster A to cluster B")
	save(runnerB, 1, "personal", "after-move", "written on the new cluster")

	res = sync(runnerB, 1, "personal", checkpoint)
	fmt.Println("\nincremental sync from the pre-move checkpoint:")
	for _, c := range res.Changes {
		fmt.Printf("  change: %s (incarnation %d)\n", c.RecordName, c.Incarnation)
	}

	// Quota bookkeeping rides on an atomic SUM system index (§8).
	_, err = runnerB.ReadRun(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := svc.UserStore(tr, notes, 1)
		if err != nil {
			return nil, err
		}
		used, err := svc.QuotaUsage(store, "Note")
		if err != nil {
			return nil, err
		}
		n, err := svc.ZoneRecordCount(store, "personal")
		if err != nil {
			return nil, err
		}
		fmt.Printf("\nuser 1 quota: %d bytes of Note records; %d records in personal zone (incarnation %d)\n",
			used, n, cloudkit.Incarnation(store))
		return nil, nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
