package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/kvcursor"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/obs"
	"recordlayer/internal/tuple"
)

// StoredRecord is a record as stored: the message plus its identity and the
// commit version of its last modification (§4).
type StoredRecord struct {
	Type       *metadata.RecordType
	Message    *message.Message
	PrimaryKey tuple.Tuple
	Version    tuple.Versionstamp
	HasVersion bool
	// Size is the stored (post-serializer) byte size; SplitChunks how many
	// pairs hold the record data.
	Size        int
	SplitChunks int

	// pendingUserVersion is the per-transaction counter value assigned to a
	// newly saved record, shared by its version slot and index entries (§7).
	pendingUserVersion uint16
}

// asIndexRecord adapts to the maintainer's view.
func (r *StoredRecord) asIndexRecord() *index.Record {
	if r == nil {
		return nil
	}
	return &index.Record{
		Type:               r.Type,
		Message:            r.Message,
		PrimaryKey:         r.PrimaryKey,
		Version:            r.Version,
		HasVersion:         r.HasVersion,
		PendingUserVersion: r.pendingUserVersion,
	}
}

// PrimaryKeyFor evaluates a record's primary key expression; the expression
// must produce exactly one tuple.
func (s *Store) PrimaryKeyFor(msg *message.Message) (*metadata.RecordType, tuple.Tuple, error) {
	rt, ok := s.md.RecordType(msg.Descriptor().Name)
	if !ok {
		return nil, nil, fmt.Errorf("core: unknown record type %q", msg.Descriptor().Name)
	}
	ctx := &keyexpr.Context{Message: msg, RecordTypeKey: rt.TypeKey()}
	pks, err := rt.PrimaryKey.Evaluate(ctx)
	if err != nil {
		return nil, nil, err
	}
	if len(pks) != 1 {
		return nil, nil, fmt.Errorf("core: primary key of %q produced %d tuples, need exactly 1", rt.Name, len(pks))
	}
	return rt, pks[0], nil
}

// SaveRecord inserts or replaces a record, maintaining every applicable
// index in the same transaction (§6): load the old record by primary key,
// let registered index maintainers reconcile entries, then rewrite the
// record's keys and its version slot.
func (s *Store) SaveRecord(msg *message.Message) (*StoredRecord, error) {
	rt, pk, err := s.PrimaryKeyFor(msg)
	if err != nil {
		return nil, err
	}
	old, err := s.LoadRecordByKey(pk)
	if err != nil {
		return nil, err
	}
	return s.saveLoaded(rt, pk, msg, old)
}

// saveLoaded finishes a save once the old record is known: assign the
// per-transaction version counter, reconcile indexes, rewrite the data.
func (s *Store) saveLoaded(rt *metadata.RecordType, pk tuple.Tuple, msg *message.Message, old *StoredRecord) (*StoredRecord, error) {
	rec, pendings, err := s.saveLoadedAsync(rt, pk, msg, old)
	if err != nil {
		return nil, err
	}
	if err := s.awaitIndexPendings(pendings); err != nil {
		return nil, err
	}
	return rec, nil
}

// saveLoadedAsync is the issue half of saveLoaded: version assignment, index
// update issue, record data write — everything except awaiting the index
// reads. Record data lives outside every index subspace, so writing it
// between a maintainer's issue and await phases cannot change what the issued
// probes resolve to.
func (s *Store) saveLoadedAsync(rt *metadata.RecordType, pk tuple.Tuple, msg *message.Message, old *StoredRecord) (*StoredRecord, []indexPending, error) {
	rec := &StoredRecord{Type: rt, Message: msg, PrimaryKey: pk}
	if s.md.StoreRecordVersions {
		rec.pendingUserVersion = s.userVersion
		s.userVersion++
	}
	pendings, err := s.updateIndexesAsync(old, rec)
	if err != nil {
		return nil, nil, err
	}
	if err := s.writeRecordData(rec, old != nil); err != nil {
		return nil, nil, err
	}
	return rec, pendings, nil
}

// SaveRecords saves a batch of records in order, with every old-record load
// issued as a concurrent future before any index maintenance runs (§8's
// asynchronous pipelining on the write path): N loads cost ~1 simulated
// latency window instead of N. Results, index entries and version assignment
// are identical to calling SaveRecord in a loop. A primary key
// repeated within the batch falls back to a read-your-writes load so the
// later save observes the earlier one.
func (s *Store) SaveRecords(msgs []*message.Message) ([]*StoredRecord, error) {
	if len(msgs) == 0 {
		return nil, nil
	}
	if !s.tr.LatencyEnabled() {
		// At zero latency the prefetch pipeline buys nothing: every future
		// resolves instantly, so the per-item future slots and the dedup map
		// are pure bookkeeping overhead. The loop is semantically identical.
		out := make([]*StoredRecord, len(msgs))
		for i, msg := range msgs {
			rec, err := s.SaveRecord(msg)
			if err != nil {
				return nil, err
			}
			out[i] = rec
		}
		return out, nil
	}
	type pending struct {
		rt   *metadata.RecordType
		pk   tuple.Tuple
		load recordLoad
		dup  bool
	}
	items := make([]pending, len(msgs))
	seen := make(map[string]bool, len(msgs))
	for i, msg := range msgs {
		rt, pk, err := s.PrimaryKeyFor(msg)
		if err != nil {
			return nil, err
		}
		items[i] = pending{rt: rt, pk: pk}
		k := string(pk.Pack())
		if seen[k] {
			items[i].dup = true
			continue
		}
		seen[k] = true
		items[i].load = s.issueLoadRecord(pk, false)
	}
	// Sweep 1: per record in batch order, resolve the old record and issue
	// its index maintenance — every maintainer's probe reads go out without
	// blocking, so all N records' descents and boundary lookups share one
	// latency window. Sweep 2: await each record's pendings in issue order,
	// applying the buffered index mutations. The two sweeps produce the same
	// keyspace as the save loop: maintainers resolve their reads
	// against the transaction state as of issue, replaying any batch-internal
	// writes buffered after them.
	out := make([]*StoredRecord, len(msgs))
	pendings := make([][]indexPending, len(msgs))
	for i, msg := range msgs {
		it := items[i]
		var old *StoredRecord
		var err error
		if it.dup {
			// An earlier save in this batch wrote the same primary key; the
			// prefetched read would predate it.
			old, err = s.loadRecordByKey(it.pk, false)
		} else {
			old, err = s.awaitLoadRecord(it.load)
		}
		if err != nil {
			return nil, err
		}
		rec, ps, err := s.saveLoadedAsync(it.rt, it.pk, msg, old)
		if err != nil {
			return nil, err
		}
		out[i] = rec
		pendings[i] = ps
	}
	for _, ps := range pendings {
		if err := s.awaitIndexPendings(ps); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// InsertRecord saves a record the caller asserts does not exist yet: the
// old-record load-and-assemble is replaced by a one-pair existence probe. The
// probe is a serializable read over the record's key range, so a concurrent
// writer of the same primary key still conflicts at commit. Returns an error
// (and writes nothing) if the record turns out to exist.
func (s *Store) InsertRecord(msg *message.Message) (*StoredRecord, error) {
	rt, pk, err := s.PrimaryKeyFor(msg)
	if err != nil {
		return nil, err
	}
	b, e := s.recordRange(pk)
	kvs, _, err := s.tr.GetRange(b, e, fdb.RangeOptions{Limit: 1})
	if err != nil {
		return nil, err
	}
	if len(kvs) > 0 {
		return nil, fmt.Errorf("core: InsertRecord: record %v already exists", pk)
	}
	return s.saveLoaded(rt, pk, msg, nil)
}

// indexPending is one index's issued-but-unawaited update: the await half of
// the maintainer's two-phase protocol plus the bookkeeping to finish the
// index's trace span when the update resolves.
type indexPending struct {
	name string
	p    index.Pending
	t0   int64
}

// updateIndexesAsync issues every non-disabled maintainer whose index covers
// the old or new record's type, awaiting nothing: each maintainer's reads are
// in flight when this returns. The pendings must be handed to
// awaitIndexPendings in the order returned (maintainers buffer mutations to
// apply at await time, in issue order). An index's `index.<name>` span opens
// at issue and closes at await, so overlapped maintenance shows overlapped
// spans — the write-path mirror of overlapping fdb.read windows.
func (s *Store) updateIndexesAsync(old, new *StoredRecord) ([]indexPending, error) {
	appliesTo := func(ix *metadata.Index) bool {
		if old != nil && ix.AppliesTo(old.Type.Name) {
			return true
		}
		return new != nil && ix.AppliesTo(new.Type.Name)
	}
	out := make([]indexPending, 0, len(s.md.Indexes()))
	for _, ix := range s.md.Indexes() {
		if !appliesTo(ix) || s.IndexState(ix.Name) == metadata.StateDisabled {
			continue
		}
		m, err := s.maintainer(ix)
		if err != nil {
			return nil, err
		}
		var t0 int64
		if s.trace != nil {
			t0 = s.tr.LatencyNow()
		}
		p, uerr := m.UpdateAsync(s.indexContext(ix), old.asIndexRecord(), new.asIndexRecord())
		if uerr != nil {
			if s.trace != nil {
				s.trace.Add(obs.SpanIndexPrefix+ix.Name, t0, s.tr.LatencyNow(), 0, uerr.Error())
			}
			return nil, uerr
		}
		out = append(out, indexPending{name: ix.Name, p: p, t0: t0})
	}
	return out, nil
}

// awaitIndexPendings resolves issued index updates in order, closing each
// index's trace span.
func (s *Store) awaitIndexPendings(pendings []indexPending) error {
	for _, ip := range pendings {
		err := ip.p.Await()
		if s.trace != nil {
			attr := ""
			if err != nil {
				attr = err.Error()
			}
			s.trace.Add(obs.SpanIndexPrefix+ip.name, ip.t0, s.tr.LatencyNow(), 0, attr)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// updateIndexes runs every applicable maintainer serially — the two-phase
// protocol's degenerate case for single-record paths.
func (s *Store) updateIndexes(old, new *StoredRecord) error {
	pendings, err := s.updateIndexesAsync(old, new)
	if err != nil {
		return err
	}
	return s.awaitIndexPendings(pendings)
}

// recordRange is the key range holding one record's pairs.
func (s *Store) recordRange(pk tuple.Tuple) ([]byte, []byte) {
	return s.space.RangeForTuple(tuple.Tuple{recordsSub}.Append(pk...))
}

func (s *Store) recordKey(pk tuple.Tuple, suffix int64) []byte {
	return s.space.Pack(tuple.Tuple{recordsSub}.Append(pk...).Append(suffix))
}

// envelopePool recycles envelope pack buffers. The envelope — and the
// serializer output, which for IdentitySerializer aliases it — is fully
// consumed before writeRecordData returns (Transaction.Set clones what it
// buffers), so the save path reuses one scratch buffer per call instead of
// allocating an envelope per record.
var envelopePool = sync.Pool{New: func() interface{} {
	b := make([]byte, 0, 512)
	return &b
}}

// writeRecordData serializes, splits and writes the record plus its version
// slot. A range clear removes the old record first, since records can be
// split across multiple keys (§6).
func (s *Store) writeRecordData(rec *StoredRecord, hadOld bool) error {
	if hadOld {
		b, e := s.recordRange(rec.PrimaryKey)
		if err := s.tr.ClearRange(b, e); err != nil {
			return err
		}
	}
	bufPtr := envelopePool.Get().(*[]byte)
	envelope := tuple.Tuple{rec.Type.Name, mustMarshal(rec.Message)}.PackInto((*bufPtr)[:0])
	defer func() {
		*bufPtr = envelope[:0]
		envelopePool.Put(bufPtr)
	}()
	blob, err := s.cfg.Serializer.Encode(envelope)
	if err != nil {
		return err
	}
	rec.Size = len(blob)
	if len(blob) <= s.cfg.SplitChunkSize {
		if err := s.tr.Set(s.recordKey(rec.PrimaryKey, unsplitRecord), blob); err != nil {
			return err
		}
		rec.SplitChunks = 1
	} else {
		if !s.md.SplitLongRecords {
			return fmt.Errorf("core: record of %d bytes exceeds the chunk size and splitting is disabled", len(blob))
		}
		n := int64(0)
		for off := 0; off < len(blob); off += s.cfg.SplitChunkSize {
			hi := off + s.cfg.SplitChunkSize
			if hi > len(blob) {
				hi = len(blob)
			}
			n++
			if err := s.tr.Set(s.recordKey(rec.PrimaryKey, n), blob[off:hi]); err != nil {
				return err
			}
		}
		rec.SplitChunks = int(n)
	}
	if s.md.StoreRecordVersions {
		// The version slot immediately precedes the record data (§4); the
		// 10-byte prefix is substituted with the commit version at commit.
		user := rec.pendingUserVersion
		val := make([]byte, 12, 16)
		for i := 0; i < 10; i++ {
			val[i] = 0xFF
		}
		binary.BigEndian.PutUint16(val[10:], user)
		var off [4]byte // versionstamp at offset 0
		val = append(val, off[:]...)
		key := s.recordKey(rec.PrimaryKey, versionSuffix)
		if err := s.tr.Atomic(fdb.MutationSetVersionstampedValue, key, val); err != nil {
			return err
		}
	}
	return nil
}

func mustMarshal(m *message.Message) []byte {
	b, err := m.Marshal()
	if err != nil {
		panic(fmt.Sprintf("core: marshal: %v", err))
	}
	return b
}

// LoadRecordByKey fetches one record by primary key; nil when absent. The
// version slot and all record chunks arrive in a single range read (§4).
func (s *Store) LoadRecordByKey(pk tuple.Tuple) (*StoredRecord, error) {
	return s.loadRecordByKey(pk, false)
}

// recordLoad is an in-flight record read: issued now, assembled at await.
type recordLoad struct {
	pk  tuple.Tuple
	fut *fdb.FutureRange
}

// issueLoadRecord starts the range read for one record's pairs without
// awaiting it; many loads issued back-to-back overlap their I/O windows.
func (s *Store) issueLoadRecord(pk tuple.Tuple, snapshot bool) recordLoad {
	b, e := s.recordRange(pk)
	if snapshot {
		return recordLoad{pk: pk, fut: s.tr.Snapshot().GetRangeAsync(b, e, fdb.RangeOptions{})}
	}
	return recordLoad{pk: pk, fut: s.tr.GetRangeAsync(b, e, fdb.RangeOptions{})}
}

// awaitLoadRecord completes an issued load: reassemble, decode. Nil when the
// record is absent.
func (s *Store) awaitLoadRecord(l recordLoad) (*StoredRecord, error) {
	kvs, _, err := l.fut.Get()
	if err != nil {
		return nil, err
	}
	if len(kvs) == 0 {
		return nil, nil
	}
	return s.assembleRecord(l.pk, kvs)
}

func (s *Store) loadRecordByKey(pk tuple.Tuple, snapshot bool) (*StoredRecord, error) {
	return s.awaitLoadRecord(s.issueLoadRecord(pk, snapshot))
}

// recordChunk is one pair of a (possibly split) record during reassembly.
type recordChunk struct {
	suffix int64
	value  []byte
}

// chunkPool recycles the scratch slices assembleRecord collects chunks into;
// the reassembly path runs once per fetched record on every scan and fetch.
var chunkPool = sync.Pool{New: func() interface{} {
	s := make([]recordChunk, 0, 8)
	return &s
}}

// assembleRecord splices a record's pairs back together (§4). Chunks are
// ordered by suffix so reverse scans assemble correctly. Safe for concurrent
// use by pipelined fetches.
func (s *Store) assembleRecord(pk tuple.Tuple, kvs []fdb.KeyValue) (*StoredRecord, error) {
	rec := &StoredRecord{PrimaryKey: pk}
	partsPtr := chunkPool.Get().(*[]recordChunk)
	parts := (*partsPtr)[:0]
	defer func() {
		for i := range parts {
			parts[i] = recordChunk{} // drop value references before pooling
		}
		*partsPtr = parts[:0]
		chunkPool.Put(partsPtr)
	}()
	sorted := true
	for _, kv := range kvs {
		t, err := s.space.Unpack(kv.Key)
		if err != nil {
			return nil, err
		}
		suffix, ok := t[len(t)-1].(int64)
		if !ok {
			return nil, fmt.Errorf("core: malformed record key suffix in %v", t)
		}
		if suffix == versionSuffix {
			v, err := tuple.VersionstampFromBytes(kv.Value)
			if err != nil {
				return nil, fmt.Errorf("core: corrupt version slot: %v", err)
			}
			rec.Version, rec.HasVersion = v, true
			continue
		}
		if n := len(parts); n > 0 && parts[n-1].suffix > suffix {
			sorted = false
		}
		parts = append(parts, recordChunk{suffix: suffix, value: kv.Value})
	}
	if !sorted { // only reverse scans pay the sort
		sort.Slice(parts, func(i, j int) bool { return parts[i].suffix < parts[j].suffix })
	}
	if len(parts) == 0 {
		// Only a version slot survives — treat as missing (can happen if a
		// caller cleared data keys directly).
		return nil, nil
	}
	var blob []byte
	if len(parts) == 1 {
		// Unsplit records reuse the fetched value; GetRange returns fresh
		// slices, so nothing else aliases it.
		blob = parts[0].value
	} else {
		total := 0
		for _, p := range parts {
			total += len(p.value)
		}
		blob = make([]byte, 0, total)
		for _, p := range parts {
			blob = append(blob, p.value...)
		}
	}
	rec.Size = len(blob)
	rec.SplitChunks = len(parts)
	envelope, err := s.cfg.Serializer.Decode(blob)
	if err != nil {
		return nil, err
	}
	t, err := tuple.Unpack(envelope)
	if err != nil || len(t) != 2 {
		return nil, fmt.Errorf("core: corrupt record envelope for %v", pk)
	}
	typeName, ok := t[0].(string)
	if !ok {
		return nil, fmt.Errorf("core: corrupt record type tag for %v", pk)
	}
	rt, ok := s.md.RecordType(typeName)
	if !ok {
		return nil, fmt.Errorf("core: record of unknown type %q; metadata may predate it", typeName)
	}
	wire, _ := t[1].([]byte)
	msg, err := message.Unmarshal(rt.Descriptor, wire)
	if err != nil {
		return nil, err
	}
	rec.Type, rec.Message = rt, msg
	return rec, nil
}

// DeleteRecord removes a record and its index entries; false when absent.
func (s *Store) DeleteRecord(pk tuple.Tuple) (bool, error) {
	old, err := s.LoadRecordByKey(pk)
	if err != nil {
		return false, err
	}
	if old == nil {
		return false, nil
	}
	if err := s.updateIndexes(old, nil); err != nil {
		return false, err
	}
	b, e := s.recordRange(pk)
	if err := s.tr.ClearRange(b, e); err != nil {
		return false, err
	}
	return true, nil
}

// DeleteAllRecords clears all records and index data but preserves the
// store header.
func (s *Store) DeleteAllRecords() error {
	for _, sub := range []int{recordsSub, indexSub, stateSub, progressSub} {
		b, e := s.space.RangeForTuple(tuple.Tuple{int64(sub)})
		if err := s.tr.ClearRange(b, e); err != nil {
			return err
		}
	}
	// Cached maintainers may hold per-transaction pipelining overlays whose
	// write logs no longer describe the cleared index subspaces.
	s.maintainers = make(map[string]index.Maintainer)
	s.indexStates = nil // every index is back to the readable default
	return s.tr.BumpMetadataVersion()
}

// ScanOptions controls record scans.
type ScanOptions struct {
	Reverse      bool
	Limiter      *cursor.Limiter
	Continuation []byte
	// Range restricts the scan to a primary key interval.
	Range index.TupleRange
	// Snapshot reads without adding read conflict ranges.
	Snapshot bool
}

// ScanRecords streams records in primary key order. All record types share
// one extent, so the stream interleaves types (§4); the continuation is the
// packed primary key of the last complete record.
func (s *Store) ScanRecords(opts ScanOptions) cursor.Cursor[*StoredRecord] {
	recSpace := s.space.Sub(recordsSub)
	begin, end, err := opts.Range.ToKeyRange(recSpace)
	if err != nil {
		return errCursor[*StoredRecord](err)
	}
	if len(opts.Continuation) > 0 {
		// The continuation is the packed pk of the last record returned:
		// skip all of its pairs.
		if !opts.Reverse {
			cb, err := tuple.Strinc(append(recSpace.Bytes(), opts.Continuation...))
			if err != nil {
				return errCursor[*StoredRecord](err)
			}
			begin = cb
		} else {
			end = append(recSpace.Bytes(), opts.Continuation...)
		}
	}
	// The limiter is charged per assembled record (below), not per raw pair:
	// §8.2's scanned-records limit counts records, and the "first record is
	// always admitted" progress guarantee must hold even when a single record
	// spans more pairs than the limit — a pair-granular limiter would halt
	// mid-record with no progress.
	kvs := kvcursor.New(s.tr, begin, end, kvcursor.Options{
		Reverse:  opts.Reverse,
		Snapshot: opts.Snapshot,
	})
	return &recordCursor{store: s, kvs: kvs, reverse: opts.Reverse, limiter: opts.Limiter}
}

// recordCursor groups raw pairs into whole records (handling splits).
type recordCursor struct {
	store   *Store
	kvs     cursor.Cursor[fdb.KeyValue]
	reverse bool
	limiter *cursor.Limiter
	halted  *cursor.Result[*StoredRecord]
	lastPK  []byte
}

func errCursor[T any](err error) cursor.Cursor[T] {
	return cursor.Func[T](func() (cursor.Result[T], error) {
		return cursor.Result[T]{}, err
	})
}

// flush assembles a completed group into a record, charging the limiter one
// record (the group's key-value footprint). A rejected record halts the
// cursor with the continuation of the previous record, so the rejected one is
// re-read on resume rather than lost; the Limiter's first-record admission
// guarantees every execution delivers at least one record.
func (c *recordCursor) flush(pk tuple.Tuple, packed []byte, group []fdb.KeyValue) (cursor.Result[*StoredRecord], error) {
	rec, err := c.store.assembleRecord(pk, group)
	if err != nil {
		return cursor.Result[*StoredRecord]{}, err
	}
	if rec != nil {
		nbytes := 0
		for _, kv := range group {
			nbytes += len(kv.Key) + len(kv.Value)
		}
		if reason, ok := c.limiter.TryRecord(nbytes); !ok {
			h := cursor.Result[*StoredRecord]{OK: false, Reason: reason, Continuation: c.lastPK}
			c.halted = &h
			return h, nil
		}
	}
	c.lastPK = packed
	if rec == nil {
		// Version-slot-only remnant: not a record; skip by recursing.
		return c.Next()
	}
	return cursor.Result[*StoredRecord]{Value: rec, OK: true, Continuation: packed}, nil
}

// Prefetch implements cursor.Prefetcher by forwarding to the pair source.
func (c *recordCursor) Prefetch() {
	if c.halted != nil {
		return
	}
	cursor.Prefetch(c.kvs)
}

// Next implements cursor.Cursor.
func (c *recordCursor) Next() (cursor.Result[*StoredRecord], error) {
	if c.halted != nil {
		return *c.halted, nil
	}
	var group []fdb.KeyValue
	var groupPK tuple.Tuple
	var groupPKPacked []byte
	for {
		r, err := c.kvs.Next()
		if err != nil {
			return cursor.Result[*StoredRecord]{}, err
		}
		if !r.OK {
			if len(group) > 0 && r.Reason == cursor.SourceExhausted {
				res, err := c.flush(groupPK, groupPKPacked, group)
				if err != nil {
					return res, err
				}
				if res.OK {
					h := cursor.Result[*StoredRecord]{OK: false, Reason: cursor.SourceExhausted}
					c.halted = &h
				}
				return res, nil
			}
			// Out-of-band halt: drop the partial group; the continuation
			// names the last complete record.
			h := cursor.Result[*StoredRecord]{OK: false, Reason: r.Reason, Continuation: c.lastPK}
			c.halted = &h
			return h, nil
		}
		t, err := c.store.space.Unpack(r.Value.Key)
		if err != nil {
			return cursor.Result[*StoredRecord]{}, err
		}
		// Key shape: (recordsSub, pk..., suffix)
		pk := t[1 : len(t)-1]
		packed := pk.Pack()
		if group == nil {
			group = append(group, r.Value)
			groupPK, groupPKPacked = pk, packed
			continue
		}
		if bytes.Equal(packed, groupPKPacked) {
			group = append(group, r.Value)
			continue
		}
		// A new primary key begins: push its first pair back so the next
		// call (or a remnant-skipping recursion) re-reads it, then emit the
		// completed group.
		c.kvs = prepend(c.kvs, r.Value)
		return c.flush(groupPK, groupPKPacked, group)
	}
}

// prepend pushes one value back onto a cursor.
func prepend(inner cursor.Cursor[fdb.KeyValue], kv fdb.KeyValue) cursor.Cursor[fdb.KeyValue] {
	return &prependCursor{inner: inner, kv: kv}
}

type prependCursor struct {
	inner cursor.Cursor[fdb.KeyValue]
	kv    fdb.KeyValue
	used  bool
}

// Prefetch implements cursor.Prefetcher: while the pushed-back pair is
// unconsumed the next delivery needs no I/O; afterwards forward to the source.
func (c *prependCursor) Prefetch() {
	if c.used {
		cursor.Prefetch(c.inner)
	}
}

func (c *prependCursor) Next() (cursor.Result[fdb.KeyValue], error) {
	if !c.used {
		c.used = true
		return cursor.Result[fdb.KeyValue]{Value: c.kv, OK: true}, nil
	}
	return c.inner.Next()
}
