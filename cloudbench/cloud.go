package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"recordlayer"
	"recordlayer/internal/core"
	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/query"
	"recordlayer/internal/tuple"
	gen "recordlayer/internal/workload"
)

// The CloudKit-shaped schema shared by sync_read and device_write: one
// record type keyed by record name, with the system indexes CloudKit adds to
// every container (§8) plus a user VALUE index.
const (
	syncIndex  = "sync"          // VERSION on (zone, version): the change feed
	quotaIndex = "quota"         // SUM of size: the tenant's storage quota
	countIndex = "count_by_zone" // COUNT grouped by zone
	valueIndex = "zone_modified" // VALUE on (zone, modified)
)

// Sizes of a request's result.
const (
	syncPageRows = 20
	queryRows    = 20
	batchRecords = 50 // records per population transaction
)

// zones are picked uniformly, as in the CloudKit-style mixes of internal/workload.
var zones = [...]string{"_defaultZone", "photos", "notes", "contacts"}

func cloudSchema() (*message.Descriptor, *metadata.MetaData, error) {
	desc, err := message.NewDescriptor("Note",
		message.Field("name", 1, message.TypeString),
		message.Field("zone", 2, message.TypeString),
		message.Field("modified", 3, message.TypeInt64),
		message.Field("size", 4, message.TypeInt64),
		message.Field("body", 5, message.TypeString),
	)
	if err != nil {
		return nil, nil, err
	}
	md, err := metadata.NewBuilder(1).
		AddRecordType(desc, keyexpr.Field("name")).
		AddIndex(&metadata.Index{Name: syncIndex, Type: metadata.IndexVersion,
			Expression: keyexpr.Then(keyexpr.Field("zone"), keyexpr.Version())}, "Note").
		AddIndex(&metadata.Index{Name: quotaIndex, Type: metadata.IndexSum,
			Expression: keyexpr.Ungrouped(keyexpr.Field("size"))}, "Note").
		AddIndex(&metadata.Index{Name: countIndex, Type: metadata.IndexCount,
			Expression: keyexpr.GroupBy(keyexpr.Empty(), keyexpr.Field("zone"))}, "Note").
		AddIndex(&metadata.Index{Name: valueIndex, Type: metadata.IndexValue,
			Expression: keyexpr.Then(keyexpr.Field("zone"), keyexpr.Field("modified"))}, "Note").
		Build()
	return desc, md, err
}

// note is the model's copy of one record. The model keeps the body's size
// and hash; the body itself only until the record is saved.
type note struct {
	name     string
	zone     int
	modified int64
	size     int64
	sum      uint64
	body     string
}

// fnv1a hashes a record body for the model.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// payload is the user data a record holds: its strings' bytes plus eight
// bytes per integer field.
func (n *note) payload() int64 {
	return int64(len(n.name)+len(zones[n.zone])) + n.size + 16
}

func (n *note) message(desc *message.Descriptor) *message.Message {
	return message.New(desc).
		MustSet("name", n.name).
		MustSet("zone", zones[n.zone]).
		MustSet("modified", n.modified).
		MustSet("size", n.size).
		MustSet("body", n.body)
}

// syncStream is a device's position in one zone's change feed.
type syncStream struct {
	cont []byte
	last []byte              // versionstamp of the last change delivered
	seen map[string]struct{} // records delivered since the feed started
}

// cloudTenant is the model of one tenant store.
type cloudTenant struct {
	id      int64
	key     string
	notes   []*note // live records
	byName  map[string]*note
	perZone [len(zones)]int
	base    int   // live records at set-up; device_write keeps the store at this size
	next    int   // number of the next new record
	clock   int64 // the tenant's modification clock
	streams [len(zones)]syncStream
}

// cloud is the tenant population and its model.
type cloud struct {
	e       *env
	desc    *message.Descriptor
	rng     *rand.Rand
	tenants []*cloudTenant
	zipf    *rand.Zipf
	hot     []int // Zipf rank → tenant index
	live    int64 // payload bytes of the live records
	written int64 // payload bytes written by requests
}

// newCloud builds a Figure 1 population: each store takes records whose body
// sizes come from gen.TxnMix until it holds its gen.StoreSizes bytes, capped
// at sz.records, with at least one record per store.
func newCloud(ctx context.Context, seed int64, sz sizes) (*cloud, error) {
	desc, md, err := cloudSchema()
	if err != nil {
		return nil, err
	}
	e, err := newEnv(md, "cloud")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	c := &cloud{e: e, desc: desc, rng: rng}
	// The population's sizes use their own TxnMix stream, apart from
	// device_write's transactions.
	bodies := txnStream{seed: -1 - seed}
	for i, b := range gen.StoreSizes(sz.tenants, seed) {
		t := &cloudTenant{id: int64(i), key: "user-" + strconv.Itoa(i), byName: map[string]*note{}}
		c.tenants = append(c.tenants, t)
		var notes []*note
		for held := 0.0; len(notes) == 0 || held < b && len(notes) < sz.records; {
			size := bodies.size()
			notes = append(notes, c.newNote(t, size))
			held += float64(size)
		}
		t.base = len(notes)
		for len(notes) > 0 {
			batch := notes[:min(batchRecords, len(notes))]
			notes = notes[len(batch):]
			if _, err := c.save(ctx, t, batch, nil); err != nil {
				return nil, fmt.Errorf("populate %s: %w", t.key, err)
			}
		}
	}
	c.written = 0
	// The paper gives no request distribution over tenants; this one is an
	// assumption (README.md, "Assumed parameters"). Larger stores are the
	// more active ones: Zipf ranks go to tenants by descending size, equal
	// sizes in seeded random order.
	c.zipf = rand.NewZipf(rng, 1.2, 100, uint64(len(c.tenants)-1))
	c.hot = rng.Perm(len(c.tenants))
	sort.SliceStable(c.hot, func(i, j int) bool {
		return len(c.tenants[c.hot[i]].notes) > len(c.tenants[c.hot[j]].notes)
	})
	return c, nil
}

// txnStream hands out gen.TxnMix transaction shapes (§2/§8.2), a seeded
// chunk at a time.
type txnStream struct {
	seed    int64
	chunk   int64
	specs   []gen.TxnSpec
	pending []int
}

func (s *txnStream) next() gen.TxnSpec {
	if len(s.specs) == 0 {
		s.chunk++
		s.specs = gen.TxnMix(1024, s.seed*1_000_003+s.chunk)
	}
	spec := s.specs[0]
	s.specs = s.specs[1:]
	return spec
}

// size is the next record size of the stream, transaction after transaction.
func (s *txnStream) size() int {
	if len(s.pending) == 0 {
		s.pending = s.next().RecordSizes
	}
	v := s.pending[0]
	s.pending = s.pending[1:]
	return v
}

func (c *cloud) tenant() *cloudTenant { return c.tenants[c.hot[c.zipf.Uint64()]] }

func (c *cloud) newNote(t *cloudTenant, size int) *note {
	n := &note{name: "r" + strconv.Itoa(t.next)}
	t.next++
	return c.touch(t, n, size)
}

// touch gives n a new zone, modification time and body.
func (c *cloud) touch(t *cloudTenant, n *note, size int) *note {
	t.clock += 1 + c.rng.Int63n(1000)
	n.zone = c.rng.Intn(len(zones))
	n.modified = t.clock
	n.body = gen.NoteBody(c.rng, size)
	n.size = int64(len(n.body))
	n.sum = fnv1a(n.body)
	return n
}

// save commits notes and deletes drop in one transaction, and applies both
// to the model once the commit succeeds.
func (c *cloud) save(ctx context.Context, t *cloudTenant, notes, drop []*note) (sample, error) {
	msgs := make([]*message.Message, len(notes))
	for i, n := range notes {
		msgs[i] = n.message(c.desc)
	}
	s, err := c.e.do(ctx, t.key, true, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := c.e.open(ctx, tr, t.id)
		if err != nil {
			return nil, err
		}
		if err := c.e.save(tr, store, msgs); err != nil {
			return nil, err
		}
		for _, n := range drop {
			found, err := store.DeleteRecord(tuple.Tuple{n.name})
			if err != nil {
				return nil, err
			}
			if !found {
				return nil, mismatchf("record %s to delete is missing", n.name)
			}
		}
		return nil, nil
	})
	if err != nil {
		return s, err
	}
	if len(drop) > 0 {
		gone := make(map[string]bool, len(drop))
		for _, n := range drop {
			gone[n.name] = true
			delete(t.byName, n.name)
			t.perZone[n.zone]--
			c.live -= n.payload()
		}
		kept := t.notes[:0]
		for _, n := range t.notes {
			if !gone[n.name] {
				kept = append(kept, n)
			}
		}
		t.notes = kept
	}
	for _, n := range notes {
		n.body = ""
		if old := t.byName[n.name]; old != nil {
			c.live -= old.payload()
			t.perZone[old.zone]--
			*old = *n
		} else {
			t.notes = append(t.notes, n)
			t.byName[n.name] = n
		}
		t.perZone[n.zone]++
		c.live += n.payload()
		c.written += n.payload()
	}
	return s, nil
}

func (c *cloud) env() *env           { return c.e }
func (c *cloud) liveBytes() int64    { return c.live }
func (c *cloud) writtenBytes() int64 { return c.written }

// checkNote compares a loaded record with the model.
func checkNote(rec *recordlayer.Record, want *note) error {
	if rec == nil {
		return mismatchf("record %s missing", want.name)
	}
	m := rec.Message
	if str(m, "name") != want.name || str(m, "zone") != zones[want.zone] ||
		i64(m, "modified") != want.modified || i64(m, "size") != want.size ||
		fnv1a(str(m, "body")) != want.sum {
		return mismatchf("record %s differs from the model", want.name)
	}
	return nil
}

// syncRead is the read-only mix: point loads, sync pages and queries.
type syncRead struct {
	*cloud
	kinds *deck
}

func newSyncRead(ctx context.Context, seed int64, sz sizes) (workload, error) {
	c, err := newCloud(ctx, seed, sz)
	if err != nil {
		return nil, err
	}
	return syncRead{c, newDeck(c.rng, 6, 3, 1)}, nil
}

func (w syncRead) step(ctx context.Context) (sample, error) {
	t := w.tenant()
	switch w.kinds.deal() {
	case 0:
		return w.load(ctx, t)
	case 1:
		return w.syncPage(ctx, t)
	default:
		return w.query(ctx, t)
	}
}

func (c *cloud) load(ctx context.Context, t *cloudTenant) (sample, error) {
	want := t.notes[c.rng.Intn(len(t.notes))]
	var got *recordlayer.Record
	s, err := c.e.do(ctx, t.key, false, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := c.e.open(ctx, tr, t.id)
		if err != nil {
			return nil, err
		}
		got, err = c.e.load(tr, store, tuple.Tuple{want.name})
		return nil, err
	})
	if err != nil {
		return s, err
	}
	return s, checkNote(got, want)
}

// syncPage fetches the next page of one zone's change feed, resuming from
// the device's continuation. Changes must arrive in version order with none
// repeated; when the feed is exhausted every record of the zone must have
// been delivered exactly once, and the device starts over.
func (c *cloud) syncPage(ctx context.Context, t *cloudTenant) (sample, error) {
	z := c.rng.Intn(len(zones))
	st := &t.streams[z]
	var recs []*recordlayer.Record
	var reason cursor.NoNextReason
	var cont []byte
	s, err := c.e.do(ctx, t.key, false, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := c.e.open(ctx, tr, t.id)
		if err != nil {
			return nil, err
		}
		m := c.e.begin(tr)
		entries, err := store.ScanIndex(syncIndex, index.TupleRange{
			Low: tuple.Tuple{zones[z]}, LowInclusive: true,
			High: tuple.Tuple{zones[z]}, HighInclusive: true,
		}, index.ScanOptions{Continuation: st.cont})
		if err != nil {
			return nil, err
		}
		fetched := store.FetchIndexedPipelined(entries, false, recordlayer.DefaultPipelineDepth)
		recs, reason, cont, err = cursor.Collect(cursor.Limit(fetched, syncPageRows))
		c.e.endScan(m, tr, spanCursor, len(recs))
		return nil, err
	})
	if err != nil {
		return s, err
	}
	if len(recs) > syncPageRows {
		return s, mismatchf("sync page of %d rows over limit %d", len(recs), syncPageRows)
	}
	if st.seen == nil {
		st.seen = map[string]struct{}{}
	}
	for _, rec := range recs {
		name := str(rec.Message, "name")
		want := t.byName[name]
		if want == nil || want.zone != z {
			return s, mismatchf("sync of zone %s delivered %q", zones[z], name)
		}
		if err := checkNote(rec, want); err != nil {
			return s, err
		}
		v := rec.Version.Bytes()
		if !rec.HasVersion || bytes.Compare(v, st.last) <= 0 {
			return s, mismatchf("sync of zone %s out of version order at %q", zones[z], name)
		}
		if _, dup := st.seen[name]; dup {
			return s, mismatchf("sync of zone %s repeated %q", zones[z], name)
		}
		st.seen[name] = struct{}{}
		st.last = v
	}
	if reason != cursor.SourceExhausted {
		st.cont = cont
		return s, nil
	}
	if len(st.seen) != t.perZone[z] {
		return s, mismatchf("sync of zone %s delivered %d of %d records", zones[z], len(st.seen), t.perZone[z])
	}
	*st = syncStream{}
	return s, nil
}

// query runs one of three zone queries with a row limit: a (zone,
// modified ≥ t) range, the same range as a covering projection, or an OR of
// two zones planned as a union.
func (c *cloud) query(ctx context.Context, t *cloudTenant) (sample, error) {
	z := c.rng.Intn(len(zones))
	kind := c.rng.Intn(3)
	var since int64
	if t.perZone[z] > 0 {
		for {
			n := t.notes[c.rng.Intn(len(t.notes))]
			if n.zone == z {
				since = n.modified
				break
			}
		}
	}
	z2 := (z + 1 + c.rng.Intn(len(zones)-1)) % len(zones)
	q := recordlayer.Query{RecordTypes: []string{"Note"}}
	if kind == 1 {
		q.Filter = query.Or(query.Field("zone").Equals(zones[z]), query.Field("zone").Equals(zones[z2]))
	} else {
		q.Filter = query.And(query.Field("zone").Equals(zones[z]), query.Field("modified").GreaterOrEqual(since))
		if kind == 2 {
			q = q.Select("zone", "modified", "name")
		}
	}
	var rows []*recordlayer.Record
	s, err := c.e.do(ctx, t.key, false, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := c.e.open(ctx, tr, t.id)
		if err != nil {
			return nil, err
		}
		m := c.e.begin(tr)
		cur, err := store.ExecuteQuery(ctx, q, recordlayer.ExecuteProperties{RowLimit: queryRows})
		if err != nil {
			return nil, err
		}
		rows, err = cur.ToList()
		c.e.endScan(m, tr, spanQuery, len(rows))
		return nil, err
	})
	if err != nil {
		return s, err
	}
	if kind == 1 {
		return s, checkUnion(t, rows, z, z2)
	}
	return s, checkRange(t, rows, z, since, kind == 2)
}

// checkRange expects the first rows of the zone in (modified, name) order
// from since on. A covering row carries only the projected fields.
func checkRange(t *cloudTenant, rows []*recordlayer.Record, z int, since int64, covering bool) error {
	var want []*note
	for _, n := range t.notes {
		if n.zone == z && n.modified >= since {
			want = append(want, n)
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].modified != want[j].modified {
			return want[i].modified < want[j].modified
		}
		return want[i].name < want[j].name
	})
	want = want[:min(len(want), queryRows)]
	if len(rows) != len(want) {
		return mismatchf("range query on zone %s returned %d rows, want %d", zones[z], len(rows), len(want))
	}
	for i, rec := range rows {
		w := want[i]
		if covering {
			m := rec.Message
			if str(m, "name") != w.name || str(m, "zone") != zones[z] || i64(m, "modified") != w.modified {
				return mismatchf("covering query row %d is %v, want %s", i, rec.PrimaryKey, w.name)
			}
			continue
		}
		if err := checkNote(rec, w); err != nil {
			return err
		}
	}
	return nil
}

// checkUnion expects min(limit, matching) distinct rows, each in one of the
// two zones and equal to the model.
func checkUnion(t *cloudTenant, rows []*recordlayer.Record, z, z2 int) error {
	want := min(queryRows, t.perZone[z]+t.perZone[z2])
	if len(rows) != want {
		return mismatchf("union query returned %d rows, want %d", len(rows), want)
	}
	seen := make(map[string]bool, len(rows))
	for _, rec := range rows {
		name := str(rec.Message, "name")
		n := t.byName[name]
		if n == nil || n.zone != z && n.zone != z2 || seen[name] {
			return mismatchf("union query row %q does not match", name)
		}
		seen[name] = true
		if err := checkNote(rec, n); err != nil {
			return err
		}
	}
	return nil
}

// deviceWrite is the write mix: transactions shaped by gen.TxnMix, ~70%
// new records and ~30% updates that move a record's zone and modified time.
// Each transaction also deletes the tenant's oldest records beyond its
// set-up size, so the data a request runs against stays the same size
// however many requests came before.
type deviceWrite struct {
	*cloud
	txns txnStream
}

func newDeviceWrite(ctx context.Context, seed int64, sz sizes) (workload, error) {
	c, err := newCloud(ctx, seed, sz)
	if err != nil {
		return nil, err
	}
	return &deviceWrite{cloud: c, txns: txnStream{seed: seed}}, nil
}

func (w *deviceWrite) step(ctx context.Context) (sample, error) {
	spec := w.txns.next()
	t := w.tenant()
	notes := make([]*note, 0, len(spec.RecordSizes))
	inserts := 0
	for _, size := range spec.RecordSizes {
		if w.rng.Float64() < 0.3 {
			// An update, unless the transaction already writes that record.
			if old := t.notes[w.rng.Intn(len(t.notes))]; !writes(notes, old.name) {
				notes = append(notes, w.touch(t, &note{name: old.name}, size))
				continue
			}
		}
		notes = append(notes, w.newNote(t, size))
		inserts++
	}
	// Retire the oldest records this transaction does not write, as many as
	// the inserts take the store past its set-up size.
	var drop []*note
	for _, n := range t.notes {
		if len(drop) >= len(t.notes)+inserts-t.base {
			break
		}
		if !writes(notes, n.name) {
			drop = append(drop, n)
		}
	}
	return w.save(ctx, t, notes, drop)
}

func writes(notes []*note, name string) bool {
	for _, n := range notes {
		if n.name == name {
			return true
		}
	}
	return false
}

// audit compares every tenant store with the model — records, the per-zone
// COUNT and the SUM quota — and scrubs the VALUE index of each store.
func (c *cloud) audit(ctx context.Context) error {
	for _, t := range c.tenants {
		if err := c.auditTenant(ctx, t); err != nil {
			return fmt.Errorf("audit %s: %w", t.key, err)
		}
	}
	return nil
}

func (c *cloud) auditTenant(ctx context.Context, t *cloudTenant) error {
	var counts [len(zones)]int64
	var quota int64
	var scrub recordlayer.Scrubber
	_, err := c.e.do(ctx, t.key, false, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := c.e.provider.Open(ctx, tr, t.id)
		if err != nil {
			return nil, err
		}
		scrub = recordlayer.Scrubber{DB: c.e.db, MetaData: store.MetaData(), Space: store.Subspace(), IndexName: valueIndex}
		for z := range zones {
			if counts[z], err = store.AggregateInt64(countIndex, tuple.Tuple{zones[z]}); err != nil {
				return nil, err
			}
		}
		quota, err = store.AggregateInt64(quotaIndex, tuple.Tuple{})
		return nil, err
	})
	if err != nil {
		return err
	}
	recs, err := scanAll(ctx, c.e, t.key, t.id)
	if err != nil {
		return err
	}
	if len(recs) != len(t.notes) {
		return fmt.Errorf("%d records stored, model has %d", len(recs), len(t.notes))
	}
	var size int64
	for _, rec := range recs {
		n := t.byName[str(rec.Message, "name")]
		if n == nil {
			return fmt.Errorf("unexpected record %v", rec.PrimaryKey)
		}
		if err := checkNote(rec, n); err != nil {
			return err
		}
		size += n.size
	}
	for z := range zones {
		if counts[z] != int64(t.perZone[z]) {
			return fmt.Errorf("COUNT of zone %s is %d, model has %d", zones[z], counts[z], t.perZone[z])
		}
	}
	if quota != size {
		return fmt.Errorf("SUM quota is %d, model has %d", quota, size)
	}
	rep, err := scrub.Scrub(ctx)
	if err != nil {
		return fmt.Errorf("scrub: %w", err)
	}
	if !rep.Clean() {
		return fmt.Errorf("scrub: %v", rep.Issues[0])
	}
	return nil
}

// scanAll reads every record of a tenant store, a bounded page per
// transaction.
func scanAll(ctx context.Context, e *env, key string, id int64) ([]*recordlayer.Record, error) {
	var all []*recordlayer.Record
	var cont []byte
	for {
		var page []*recordlayer.Record
		var reason cursor.NoNextReason
		_, err := e.do(ctx, key, false, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			store, err := e.provider.Open(ctx, tr, id)
			if err != nil {
				return nil, err
			}
			page, reason, cont, err = cursor.Collect(cursor.Limit(store.ScanRecords(core.ScanOptions{Continuation: cont}), 500))
			return nil, err
		})
		if err != nil {
			return nil, err
		}
		all = append(all, page...)
		if reason == cursor.SourceExhausted {
			return all, nil
		}
	}
}
