package fdb

import (
	"bytes"
	"encoding/binary"
	"sort"
	"sync"

	"recordlayer/internal/obs"
)

// KeyValue is a single key-value pair returned by range reads.
type KeyValue struct {
	Key, Value []byte
}

// RangeOptions controls range reads.
type RangeOptions struct {
	// Limit bounds the number of pairs returned; 0 means unlimited.
	Limit int
	// ByteLimit bounds the total key+value bytes returned; 0 means unlimited.
	ByteLimit int
	// Reverse returns pairs in descending key order, starting from End.
	Reverse bool
}

// MutationType enumerates atomic read-modify-write operations (§2). Atomic
// mutations do not add read conflicts, so concurrent mutations of the same
// key never conflict — the property aggregate indexes rely on (§7).
type MutationType int

const (
	// MutationAdd performs little-endian integer addition.
	MutationAdd MutationType = iota
	// MutationBitAnd, MutationBitOr, MutationBitXor are bitwise ops.
	MutationBitAnd
	MutationBitOr
	MutationBitXor
	// MutationMax / MutationMin compare as little-endian unsigned integers.
	MutationMax
	MutationMin
	// MutationByteMax / MutationByteMin compare lexicographically. Because
	// tuple encoding is order-preserving, these implement MAX_EVER/MIN_EVER
	// over tuple-encoded values.
	MutationByteMax
	MutationByteMin
	// MutationAppendIfFits appends if the result stays within the value limit.
	MutationAppendIfFits
	// MutationCompareAndClear clears the key iff its value equals the param.
	MutationCompareAndClear
	// MutationSetVersionstampedKey substitutes the 10-byte commit versionstamp
	// into the key at the offset given by the key's final 4 little-endian
	// bytes (which are stripped).
	MutationSetVersionstampedKey
	// MutationSetVersionstampedValue does the same substitution in the value.
	MutationSetVersionstampedValue
)

type mutation struct {
	typ   MutationType
	param []byte
}

// bufEntry is the read-your-writes state for one key.
type bufEntry struct {
	isSet bool
	value []byte     // valid when isSet
	ops   []mutation // pending atomic ops applied to the committed base
}

type vsKeyOp struct {
	rawKey []byte // placeholder key with offset suffix stripped
	offset int
	value  []byte
}

// Transaction provides serializable reads and buffered writes against a
// Database. Operations are serialized by an internal mutex, so a transaction
// handle may be shared by concurrent goroutines — the real client is likewise
// thread-safe, which is what lets the Record Layer keep multiple record
// fetches in flight behind one index scan (§8's asynchronous pipelining).
type Transaction struct {
	db *Database
	mu sync.Mutex
	txnState
}

// txnState is every Transaction field that Reset returns to zero — kept in
// one embedded struct so Reset stays exhaustive by construction when fields
// are added (the mutex must survive a Reset and lives outside).
type txnState struct {
	start int64 // start wall clock, nanoseconds

	readVersion int64 // -1 until GRV
	snapRoot    *node
	pendingRV   bool // SetReadVersion called; snapshot not yet bound
	// grvReady is the latency-clock time the GRV round trip completes
	// (latency model only; 0 when no real GRV has been priced). Reads issue
	// no earlier than it, so the GRV window pipelines with the first read
	// window instead of stacking serially with every read.
	grvReady int64
	// grvReply is set when the read version came from a GRV call, whose
	// reply also carries MetadataVersionKey; SetReadVersion leaves it unset.
	grvReply bool
	// mvBumped is set by BumpMetadataVersion: the metadata version is then
	// unreadable for the rest of the transaction.
	mvBumped bool

	writes         map[string]*bufEntry
	sortedKeys     []string // cache of sorted writes keys; nil when dirty
	clears         rangeSet
	vsKeys         []vsKeyOp
	vsValueOffsets map[string]int // buffer key -> versionstamp offset in value

	readConflicts  rangeSet
	writeConflicts rangeSet

	// outstanding holds the ready times of reads still in flight per the
	// latency clock (latency model only): entries at or before the clock are
	// dropped at the next issue, so abandoned futures age out naturally.
	outstanding []int64

	// trace, when set, receives GRV / read-window / await / commit spans
	// priced by the latency clock. Nil (the default) costs one pointer check
	// per site.
	trace *obs.Trace

	// meter, when set, is charged for every read and buffered mutation.
	// owed collects what the current call counted; unlockAndCharge hands it
	// to the meter once t.mu is released.
	meter Meter
	owed  charge

	stats     TxnStats
	committed bool
	canceled  bool
	cVersion  int64 // committed version

	// options
	snapshotDefault bool
}

// Meter receives the I/O a transaction performs on a tenant's behalf. It is
// declared here, not in the resource package that implements it, because
// resource depends on fdb.
type Meter interface {
	RecordRead(rows, bytes int)
	RecordWrite(rows, bytes int)
}

// charge is the I/O one call counted into TxnStats: reads as in KeysRead and
// BytesRead, mutations as in Mutations and Size.
type charge struct {
	readRows, readBytes   int
	writeRows, writeBytes int
}

// unlockAndCharge releases t.mu and then charges the bound meter for what
// the call counted while holding it. The meter runs outside the lock because
// it may call back into the caller's code (a governor's byte quota).
func (t *Transaction) unlockAndCharge() {
	m, c := t.meter, t.owed
	t.owed = charge{}
	t.mu.Unlock()
	if m == nil {
		return
	}
	if c.readRows > 0 {
		m.RecordRead(c.readRows, c.readBytes)
	}
	if c.writeRows > 0 {
		m.RecordWrite(c.writeRows, c.writeBytes)
	}
}

func (d *Database) nowNanos() int64 { return d.opts.Clock().UnixNano() }

func (t *Transaction) init() {
	if t.writes == nil {
		t.writes = make(map[string]*bufEntry)
	}
}

func (t *Transaction) checkUsable() error {
	if t.committed {
		return errCode(CodeUsedDuringCommit, "transaction already committed")
	}
	if t.canceled {
		return errCode(CodeTransactionCanceled, "transaction canceled")
	}
	if t.db.nowNanos()-t.start > int64(t.db.opts.Limits.TxnTimeout) {
		return errCode(CodeTransactionTimedOut, "transaction timed out")
	}
	return nil
}

func (t *Transaction) ensureSnapshot() error {
	if t.pendingRV {
		// SetReadVersion was called: bind to the retained snapshot now.
		root, actual, ok := t.db.snapshotAt(t.readVersion)
		if !ok {
			return errCode(CodeTransactionTooOld, "read version %d no longer retained", t.readVersion)
		}
		t.snapRoot = root
		t.readVersion = actual
		t.pendingRV = false
		return nil
	}
	if t.readVersion < 0 {
		t.readVersion, t.snapRoot = t.db.grv()
		t.grvReply = true
		// A SetReadVersion transaction never reaches here — read-version
		// caching skips the GRV round trip and therefore its price.
		if m := t.db.opts.Latency; m.Enabled() && m.PerGRV > 0 {
			now := t.db.simNow()
			t.grvReady = now + int64(m.PerGRV)
			if t.trace != nil {
				t.trace.Add(obs.SpanGRV, now, t.grvReady, 0, "")
			}
		} else if t.trace != nil {
			now := t.db.simNow()
			t.trace.Add(obs.SpanGRV, now, now, 0, "")
		}
	}
	return nil
}

// GetReadVersion returns the transaction's read version, performing (and,
// under a latency model, waiting out) the GRV call if it has not happened yet.
func (t *Transaction) GetReadVersion() (int64, error) {
	t.mu.Lock()
	if err := t.checkUsable(); err != nil {
		t.mu.Unlock()
		return 0, err
	}
	if err := t.ensureSnapshot(); err != nil {
		t.mu.Unlock()
		return 0, err
	}
	v, ready := t.readVersion, t.grvReady
	t.mu.Unlock()
	t.awaitRead(ready)
	return v, nil
}

// SetReadVersion supplies a cached read version, skipping the GRV call (the
// read-version caching optimization of §4). Reads will observe the newest
// retained snapshot at or below v; if none is retained the next read fails
// with transaction_too_old.
func (t *Transaction) SetReadVersion(v int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.readVersion = v
	t.snapRoot = nil
	t.pendingRV = true
}

// Snapshot returns a read interface that performs snapshot reads: reads that
// add no read conflict ranges and therefore never cause this transaction to
// abort (§2, §10.1).
func (t *Transaction) Snapshot() Snapshot { return Snapshot{t} }

// Snapshot is the snapshot-isolation read view of a transaction.
type Snapshot struct{ t *Transaction }

// Get reads a key at snapshot isolation.
func (s Snapshot) Get(key []byte) ([]byte, error) { return s.t.syncGet(key, true) }

// GetAsync issues a snapshot single-key read as a future.
func (s Snapshot) GetAsync(key []byte) *FutureValue { return s.t.getAsync(key, true) }

// GetRange reads a range at snapshot isolation.
func (s Snapshot) GetRange(begin, end []byte, o RangeOptions) ([]KeyValue, bool, error) {
	return s.t.syncGetRange(begin, end, o, true)
}

// GetRangeAsync issues a snapshot range read as a future.
func (s Snapshot) GetRangeAsync(begin, end []byte, o RangeOptions) *FutureRange {
	return s.t.getRangeAsync(begin, end, o, true)
}

// Get reads a key with full serializable isolation.
func (t *Transaction) Get(key []byte) ([]byte, error) { return t.syncGet(key, false) }

// syncGet is issue-plus-await without materializing a future, keeping the
// synchronous read path allocation-free.
func (t *Transaction) syncGet(key []byte, snapshot bool) ([]byte, error) {
	t.mu.Lock()
	val, err := t.getLocked(key, snapshot)
	var ready int64
	if err == nil {
		ready = t.issueLocked(len(key) + len(val))
	}
	t.unlockAndCharge()
	t.awaitRead(ready)
	return val, err
}

// GetAsync issues a single-key read and returns a future for its result. The
// read's data (and its conflict range and accounting) is established now;
// only the simulated latency wait is deferred to Get. Issue many, then await:
// concurrent futures resolve within one latency window (§8).
func (t *Transaction) GetAsync(key []byte) *FutureValue { return t.getAsync(key, false) }

func (t *Transaction) getAsync(key []byte, snapshot bool) *FutureValue {
	t.mu.Lock()
	defer t.unlockAndCharge()
	f := &FutureValue{fut: fut{t: t}}
	f.value, f.err = t.getLocked(key, snapshot)
	if f.err == nil {
		f.ready = t.issueLocked(len(key) + len(f.value))
	}
	return f
}

// issueLocked registers one read with the latency model, returning the
// latency-clock time at which it completes (0 when latency is off, keeping
// the instant-read hot path free of clock reads and in-flight bookkeeping).
// In-flight tracking is by ready time: reads the clock has passed are retired
// here, so futures abandoned without an await age out instead of inflating
// the high-water mark.
func (t *Transaction) issueLocked(nbytes int) int64 {
	m := t.db.opts.Latency
	if !m.Enabled() {
		return 0
	}
	now := t.db.simNow()
	// A read cannot issue before the GRV round trip resolves; the GRV and
	// read windows still pipeline into one wait for the first await.
	issueAt := now
	if t.grvReady > issueAt {
		issueAt = t.grvReady
	}
	ready := issueAt + int64(m.readCost(nbytes))
	if f := t.db.opts.Faults; f != nil {
		ready += f.latencySpike()
	}
	if t.trace != nil {
		t.trace.Add(obs.SpanRead, issueAt, ready, nbytes, "")
	}
	live := t.outstanding[:0]
	for _, r := range t.outstanding {
		if r > now {
			live = append(live, r)
		}
	}
	t.outstanding = append(live, ready)
	if len(t.outstanding) > t.stats.InFlightHighWater {
		t.stats.InFlightHighWater = len(t.outstanding)
	}
	return ready
}

// awaitRead waits out a read issued at issueLocked, charging any actual wait
// to the transaction and database counters. ready == 0 means no latency
// model; repeated awaits of the same ready time cost nothing extra.
func (t *Transaction) awaitRead(ready int64) {
	if ready == 0 {
		return
	}
	waited := t.db.waitUntil(ready)
	if waited == 0 {
		return
	}
	t.mu.Lock()
	t.stats.SimWaitNanos += waited
	trace := t.trace
	t.mu.Unlock()
	t.db.metrics.SimWaitNanos.Add(waited)
	if trace != nil {
		trace.Add(obs.SpanAwait, ready-waited, ready, 0, "")
	}
}

func (t *Transaction) getLocked(key []byte, snapshot bool) ([]byte, error) {
	if err := t.checkUsable(); err != nil {
		return nil, err
	}
	if f := t.db.opts.Faults; f != nil {
		if err := f.readFault(); err != nil {
			return nil, err
		}
	}
	if len(key) > t.db.opts.Limits.MaxKeySize {
		return nil, errCode(CodeKeyTooLarge, "key of %d bytes exceeds limit", len(key))
	}
	t.init()
	if e, ok := t.writes[string(key)]; ok {
		if e.isSet {
			return cloneBytes(e.value), nil
		}
		// Pending atomic ops: materialize against the read snapshot and
		// convert to a set, as the read-your-writes layer does.
		if err := t.ensureSnapshot(); err != nil {
			return nil, err
		}
		base, _ := treapGet(t.snapRoot, key)
		t.countRead(key, base)
		if !snapshot {
			t.readConflicts.AddKey(key)
		}
		val, cleared := applyMutations(base, e.ops, t.db.opts.Limits.MaxValueSize)
		if cleared {
			delete(t.writes, string(key))
			t.sortedKeys = nil
			t.clears.AddKey(key)
			return nil, nil
		}
		e.isSet, e.value, e.ops = true, val, nil
		return cloneBytes(val), nil
	}
	if t.clears.ContainsKey(key) {
		return nil, nil
	}
	if err := t.ensureSnapshot(); err != nil {
		return nil, err
	}
	val, ok := treapGet(t.snapRoot, key)
	t.countRead(key, val)
	if !snapshot {
		t.readConflicts.AddKey(key)
	}
	if !ok {
		return nil, nil
	}
	return cloneBytes(val), nil
}

// countRead accounts one pair the cluster read: a missed point read counts
// as one pair of key bytes. Caller holds t.mu and releases it with
// unlockAndCharge.
func (t *Transaction) countRead(key, val []byte) {
	n := len(key) + len(val)
	t.stats.KeysRead++
	t.stats.BytesRead += n
	t.owed.readRows++
	t.owed.readBytes += n
	t.db.metrics.KeysRead.Add(1)
	t.db.metrics.BytesRead.Add(int64(n))
}

// GetRange returns key-value pairs in [begin, end), honoring limits. The
// second result reports whether more data remained when a limit stopped the
// scan early.
func (t *Transaction) GetRange(begin, end []byte, o RangeOptions) ([]KeyValue, bool, error) {
	return t.syncGetRange(begin, end, o, false)
}

// syncGetRange is issue-plus-await without materializing a future.
func (t *Transaction) syncGetRange(begin, end []byte, o RangeOptions, snapshot bool) ([]KeyValue, bool, error) {
	t.mu.Lock()
	kvs, more, nbytes, err := t.getRangeLocked(begin, end, o, snapshot)
	var ready int64
	if err == nil {
		ready = t.issueLocked(nbytes)
	}
	t.unlockAndCharge()
	t.awaitRead(ready)
	return kvs, more, err
}

// GetRangeAsync issues a range read as a future: the batch's data, conflict
// range and accounting are established now, and only the simulated latency
// wait is deferred to Get. A whole batch pays one per-read latency cost, so
// range reads issued ahead (kvcursor read-ahead, pipelined record fetches)
// overlap their windows with consumption.
func (t *Transaction) GetRangeAsync(begin, end []byte, o RangeOptions) *FutureRange {
	return t.getRangeAsync(begin, end, o, false)
}

func (t *Transaction) getRangeAsync(begin, end []byte, o RangeOptions, snapshot bool) *FutureRange {
	t.mu.Lock()
	defer t.unlockAndCharge()
	f := &FutureRange{fut: fut{t: t}}
	var nbytes int
	f.kvs, f.more, nbytes, f.err = t.getRangeLocked(begin, end, o, snapshot)
	if f.err == nil {
		f.ready = t.issueLocked(nbytes)
	}
	return f
}

// getRangeLocked performs the range read, additionally returning the total
// key+value bytes delivered (the latency model's transfer size).
func (t *Transaction) getRangeLocked(begin, end []byte, o RangeOptions, snapshot bool) ([]KeyValue, bool, int, error) {
	if err := t.checkUsable(); err != nil {
		return nil, false, 0, err
	}
	// A fault here lands mid-scan from the cursor's perspective: earlier
	// batches of the same logical scan already succeeded.
	if f := t.db.opts.Faults; f != nil {
		if err := f.readFault(); err != nil {
			return nil, false, 0, err
		}
	}
	if bytes.Compare(begin, end) >= 0 {
		return nil, false, 0, nil
	}
	t.init()
	if err := t.ensureSnapshot(); err != nil {
		return nil, false, 0, err
	}

	bufKeys := t.bufferedKeysIn(begin, end, o.Reverse)
	var snapIter *treapIter
	if !o.Reverse {
		snapIter = newTreapIter(t.snapRoot, begin, false)
	} else {
		snapIter = newTreapIter(t.snapRoot, end, true)
	}

	var out []KeyValue
	var byteCount int
	more := false
	bi := 0

	// convert records pending-atomic materializations to apply after the loop.
	type conv struct {
		key string
		val []byte
		del bool
	}
	var conversions []conv

	inDir := func(a, b []byte) bool { // a strictly before b in scan direction
		if o.Reverse {
			return bytes.Compare(a, b) > 0
		}
		return bytes.Compare(a, b) < 0
	}

	nextSnap := func() *node {
		for {
			n := snapIter.peek()
			if n == nil {
				return nil
			}
			if !o.Reverse && bytes.Compare(n.key, end) >= 0 {
				return nil
			}
			if o.Reverse && bytes.Compare(n.key, begin) < 0 {
				return nil
			}
			if t.clears.ContainsKey(n.key) {
				snapIter.next()
				continue
			}
			return n
		}
	}

	for {
		if o.Limit > 0 && len(out) >= o.Limit {
			more = nextSnap() != nil || bi < len(bufKeys)
			break
		}
		if o.ByteLimit > 0 && byteCount >= o.ByteLimit {
			more = nextSnap() != nil || bi < len(bufKeys)
			break
		}
		sn := nextSnap()
		var bk string
		haveBuf := bi < len(bufKeys)
		if haveBuf {
			bk = bufKeys[bi]
		}
		if sn == nil && !haveBuf {
			break
		}
		var kv KeyValue
		switch {
		case sn != nil && haveBuf && string(sn.key) == bk:
			// Buffer overrides the snapshot version of the key.
			snapIter.next()
			fallthrough
		case sn == nil || (haveBuf && inDir([]byte(bk), sn.key)):
			e := t.writes[bk]
			bi++
			if e.isSet {
				kv = KeyValue{Key: []byte(bk), Value: cloneBytes(e.value)}
			} else {
				base, _ := treapGet(t.snapRoot, []byte(bk))
				t.countRead([]byte(bk), base)
				val, cleared := applyMutations(base, e.ops, t.db.opts.Limits.MaxValueSize)
				if cleared {
					conversions = append(conversions, conv{key: bk, del: true})
					continue
				}
				conversions = append(conversions, conv{key: bk, val: val})
				kv = KeyValue{Key: []byte(bk), Value: cloneBytes(val)}
			}
		default:
			n := snapIter.next()
			kv = KeyValue{Key: cloneBytes(n.key), Value: cloneBytes(n.value)}
			t.countRead(n.key, n.value)
		}
		out = append(out, kv)
		byteCount += len(kv.Key) + len(kv.Value)
	}

	for _, c := range conversions {
		if c.del {
			delete(t.writes, c.key)
			t.sortedKeys = nil
			t.clears.AddKey([]byte(c.key))
			continue
		}
		e := t.writes[c.key]
		e.isSet, e.value, e.ops = true, c.val, nil
	}

	if !snapshot {
		// Conflict with exactly the portion of the range actually observed.
		cb, ce := begin, end
		if more && len(out) > 0 {
			last := out[len(out)-1].Key
			if !o.Reverse {
				ce = keyAfter(last)
			} else {
				cb = last
			}
		}
		t.readConflicts.Add(cb, ce)
	}
	return out, more, byteCount, nil
}

// bufferedKeysIn returns sorted buffer keys within [begin, end).
func (t *Transaction) bufferedKeysIn(begin, end []byte, reverse bool) []string {
	if t.sortedKeys == nil {
		t.sortedKeys = make([]string, 0, len(t.writes))
		for k := range t.writes {
			t.sortedKeys = append(t.sortedKeys, k)
		}
		sort.Strings(t.sortedKeys)
	}
	lo := sort.SearchStrings(t.sortedKeys, string(begin))
	hi := sort.SearchStrings(t.sortedKeys, string(end))
	keys := t.sortedKeys[lo:hi]
	if !reverse {
		return keys
	}
	rev := make([]string, len(keys))
	for i, k := range keys {
		rev[len(keys)-1-i] = k
	}
	return rev
}

// Set buffers a key-value write.
func (t *Transaction) Set(key, value []byte) error {
	t.mu.Lock()
	defer t.unlockAndCharge()
	if err := t.checkWrite(key, value); err != nil {
		return err
	}
	t.init()
	t.setEntry(key, &bufEntry{isSet: true, value: cloneBytes(value)})
	t.accountWrite(len(key) + len(value))
	return nil
}

func (t *Transaction) checkWrite(key, value []byte) error {
	if err := t.checkUsable(); err != nil {
		return err
	}
	if len(key) > t.db.opts.Limits.MaxKeySize {
		return errCode(CodeKeyTooLarge, "key of %d bytes exceeds limit", len(key))
	}
	if len(value) > t.db.opts.Limits.MaxValueSize {
		return errCode(CodeValueTooLarge, "value of %d bytes exceeds limit", len(value))
	}
	return nil
}

func (t *Transaction) setEntry(key []byte, e *bufEntry) {
	ks := string(key)
	if _, ok := t.writes[ks]; !ok {
		t.sortedKeys = nil
	}
	t.writes[ks] = e
	delete(t.vsValueOffsets, ks)
}

// accountWrite accounts one buffered mutation of n bytes. Caller holds t.mu
// and releases it with unlockAndCharge.
func (t *Transaction) accountWrite(n int) {
	t.stats.Size += n
	t.stats.Mutations++
	t.owed.writeRows++
	t.owed.writeBytes += n
}

// Clear buffers the removal of a single key.
func (t *Transaction) Clear(key []byte) error {
	t.mu.Lock()
	defer t.unlockAndCharge()
	return t.clearRange(key, keyAfter(key))
}

// ClearRange buffers the removal of all keys in [begin, end). Range clears
// are cheap regardless of the number of keys affected (§2), which is what
// makes dropping a whole index or record store inexpensive (§6).
func (t *Transaction) ClearRange(begin, end []byte) error {
	t.mu.Lock()
	defer t.unlockAndCharge()
	return t.clearRange(begin, end)
}

func (t *Transaction) clearRange(begin, end []byte) error {
	if err := t.checkUsable(); err != nil {
		return err
	}
	if bytes.Compare(begin, end) >= 0 {
		return nil
	}
	t.init()
	// Remove buffered entries now covered by the clear.
	for _, k := range t.bufferedKeysIn(begin, end, false) {
		delete(t.writes, k)
		delete(t.vsValueOffsets, k)
	}
	t.sortedKeys = nil
	t.clears.Add(begin, end)
	t.stats.RangeClears++
	t.accountWrite(len(begin) + len(end))
	return nil
}

// Atomic buffers an atomic mutation (§2). For versionstamped mutations the
// key (or value) must carry a 4-byte little-endian placeholder offset as its
// final bytes, as produced by tuple.Tuple.PackWithVersionstamp.
func (t *Transaction) Atomic(typ MutationType, key, param []byte) error {
	t.mu.Lock()
	defer t.unlockAndCharge()
	if err := t.checkUsable(); err != nil {
		return err
	}
	t.init()
	switch typ {
	case MutationSetVersionstampedKey:
		if len(key) < 4 {
			return errCode(CodeClientInvalidOp, "versionstamped key too short")
		}
		offset := int(binary.LittleEndian.Uint32(key[len(key)-4:]))
		raw := cloneBytes(key[:len(key)-4])
		if offset+10 > len(raw) {
			return errCode(CodeClientInvalidOp, "versionstamp offset %d out of bounds", offset)
		}
		if len(raw) > t.db.opts.Limits.MaxKeySize {
			return errCode(CodeKeyTooLarge, "key of %d bytes exceeds limit", len(raw))
		}
		t.vsKeys = append(t.vsKeys, vsKeyOp{rawKey: raw, offset: offset, value: cloneBytes(param)})
		t.accountWrite(len(raw) + len(param))
		return nil
	case MutationSetVersionstampedValue:
		if len(param) < 4 {
			return errCode(CodeClientInvalidOp, "versionstamped value too short")
		}
		offset := int(binary.LittleEndian.Uint32(param[len(param)-4:]))
		raw := cloneBytes(param[:len(param)-4])
		if offset+10 > len(raw) {
			return errCode(CodeClientInvalidOp, "versionstamp offset %d out of bounds", offset)
		}
		if err := t.checkWrite(key, raw); err != nil {
			return err
		}
		t.setEntry(key, &bufEntry{isSet: true, value: raw})
		if t.vsValueOffsets == nil {
			t.vsValueOffsets = make(map[string]int)
		}
		t.vsValueOffsets[string(key)] = offset
		t.accountWrite(len(key) + len(raw))
		return nil
	}
	if err := t.checkWrite(key, param); err != nil {
		return err
	}
	ks := string(key)
	if e, ok := t.writes[ks]; ok {
		if e.isSet {
			val, cleared := applyMutations(e.value, []mutation{{typ, cloneBytes(param)}}, t.db.opts.Limits.MaxValueSize)
			if cleared {
				delete(t.writes, ks)
				t.sortedKeys = nil
				t.clears.AddKey(key)
			} else {
				e.value = val
			}
		} else {
			e.ops = append(e.ops, mutation{typ, cloneBytes(param)})
		}
	} else if t.clears.ContainsKey(key) {
		val, cleared := applyMutations(nil, []mutation{{typ, cloneBytes(param)}}, t.db.opts.Limits.MaxValueSize)
		if !cleared {
			t.setEntry(key, &bufEntry{isSet: true, value: val})
		}
	} else {
		t.setEntry(key, &bufEntry{ops: []mutation{{typ, cloneBytes(param)}}})
	}
	t.accountWrite(len(key) + len(param))
	return nil
}

// AddReadConflictKey manually adds a single-key read conflict, used after
// snapshot reads to conflict only on the keys that matter (§10.1).
func (t *Transaction) AddReadConflictKey(key []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.readConflicts.AddKey(key)
}

// AddReadConflictRange manually adds a read conflict range.
func (t *Transaction) AddReadConflictRange(begin, end []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.readConflicts.Add(begin, end)
}

// AddWriteConflictKey manually adds a single-key write conflict.
func (t *Transaction) AddWriteConflictKey(key []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.writeConflicts.AddKey(key)
}

// AddWriteConflictRange manually adds a write conflict range.
func (t *Transaction) AddWriteConflictRange(begin, end []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.writeConflicts.Add(begin, end)
}

// Commit validates and applies the transaction. On conflict it returns a
// retryable not_committed error, matching optimistic concurrency control.
// Under a latency model a committing commit waits out PerCommit after every
// issued read has resolved; read-only commits are client-side no-ops and
// stay free.
func (t *Transaction) Commit() error {
	t.mu.Lock()
	trace := t.trace
	var t0 int64
	if trace != nil {
		t0 = t.db.simNow()
	}
	ready, err := t.commitLocked()
	t.mu.Unlock()
	if err != nil {
		if trace != nil {
			trace.Add(obs.SpanCommit, t0, t.db.simNow(), 0, err.Error())
		}
		return err
	}
	// waitUntil advances the latency clock to ready, so the span's end under
	// the virtual clock is exactly the commit round trip's completion.
	t.awaitRead(ready)
	if trace != nil {
		trace.Add(obs.SpanCommit, t0, t.db.simNow(), 0, "")
	}
	return nil
}

// commitLocked is Commit's body, returning the latency-clock time the commit
// round trip completes (0 when nothing is charged). The wait happens in
// Commit after the lock is released — awaitRead takes t.mu itself. Caller
// holds t.mu.
func (t *Transaction) commitLocked() (int64, error) {
	if err := t.checkUsable(); err != nil {
		return 0, err
	}
	if t.stats.Size+t.conflictRangeBytes() > t.db.opts.Limits.MaxTxnSize {
		return 0, errCode(CodeTransactionTooLarge, "transaction exceeds %d bytes", t.db.opts.Limits.MaxTxnSize)
	}
	if len(t.writes) == 0 && t.clears.Len() == 0 && len(t.vsKeys) == 0 && t.writeConflicts.Len() == 0 {
		// Read-only transactions commit trivially at their read version.
		t.committed = true
		if err := t.ensureSnapshot(); err != nil {
			return 0, err
		}
		t.cVersion = t.readVersion
		return 0, nil
	}
	if err := t.ensureSnapshot(); err != nil {
		return 0, err
	}
	v, err := t.db.commit(t)
	if err != nil {
		return 0, err
	}
	t.committed = true
	t.cVersion = v
	m := t.db.opts.Latency
	if !m.Enabled() || m.PerCommit <= 0 {
		return 0, nil
	}
	// The commit round trip starts once the GRV and every issued read have
	// resolved (the real client flushes outstanding futures before commit).
	start := t.db.simNow()
	if t.grvReady > start {
		start = t.grvReady
	}
	for _, r := range t.outstanding {
		if r > start {
			start = r
		}
	}
	return start + int64(m.PerCommit), nil
}

func (t *Transaction) conflictRangeBytes() int {
	n := 0
	for _, r := range t.readConflicts.All() {
		n += len(r.Begin) + len(r.End)
	}
	return n
}

// applyTo produces the new committed root. Pending atomic mutations read
// their base value from the *current* committed root, not the transaction's
// snapshot — this is what makes concurrent atomic increments compose.
func (t *Transaction) applyTo(root *node, commitVersion int64) *node {
	for _, r := range t.clears.All() {
		root = treapClearRange(root, r.Begin, r.End)
	}
	keys := make([]string, 0, len(t.writes))
	for k := range t.writes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	stamp := versionstampBytes(commitVersion)
	for _, k := range keys {
		e := t.writes[k]
		var val []byte
		if e.isSet {
			val = e.value
			if off, ok := t.vsValueOffsets[k]; ok {
				val = cloneBytes(val)
				copy(val[off:off+10], stamp)
			}
		} else {
			base, _ := treapGet(root, []byte(k))
			var cleared bool
			val, cleared = applyMutations(base, e.ops, t.db.opts.Limits.MaxValueSize)
			if cleared {
				root = treapDelete(root, []byte(k))
				t.noteWritten(k, nil)
				continue
			}
		}
		root = treapInsert(root, []byte(k), cloneBytes(val))
		t.noteWritten(k, val)
	}
	for _, op := range t.vsKeys {
		key := cloneBytes(op.rawKey)
		copy(key[op.offset:op.offset+10], stamp)
		root = treapInsert(root, key, cloneBytes(op.value))
		t.noteWritten(string(key), op.value)
	}
	return root
}

func (t *Transaction) noteWritten(key string, val []byte) {
	t.stats.KeysWritten++
	t.stats.BytesWritten += len(key) + len(val)
	t.db.metrics.KeysWritten.Add(1)
	t.db.metrics.BytesWritten.Add(int64(len(key) + len(val)))
}

// writeConflictRanges collects this transaction's write footprint for the
// resolver window.
func (t *Transaction) writeConflictRanges(commitVersion int64) []KeyRange {
	var out []KeyRange
	for _, r := range t.clears.All() {
		out = append(out, r)
	}
	for k := range t.writes {
		out = append(out, singleKeyRange([]byte(k)))
	}
	stamp := versionstampBytes(commitVersion)
	for _, op := range t.vsKeys {
		key := cloneBytes(op.rawKey)
		copy(key[op.offset:op.offset+10], stamp)
		out = append(out, singleKeyRange(key))
	}
	out = append(out, t.writeConflicts.All()...)
	return out
}

// versionstampBytes renders the 10-byte transaction version: 8-byte
// big-endian commit version plus a 2-byte batch order (always zero here,
// since each simulated commit forms its own batch).
func versionstampBytes(commitVersion int64) []byte {
	b := make([]byte, 10)
	binary.BigEndian.PutUint64(b, uint64(commitVersion))
	return b
}

// CommittedVersion returns the version this transaction committed at.
func (t *Transaction) CommittedVersion() (int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.committed {
		return 0, errCode(CodeClientInvalidOp, "transaction not committed")
	}
	return t.cVersion, nil
}

// Versionstamp returns the 10-byte versionstamp assigned at commit.
func (t *Transaction) Versionstamp() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.committed {
		return nil, errCode(CodeClientInvalidOp, "transaction not committed")
	}
	return versionstampBytes(t.cVersion), nil
}

// SetTrace attaches a span sink: GRV, read-window, await, and commit spans
// are recorded into it, priced by the latency clock. The Runner attaches the
// context's trace to each attempt's transaction; nil (the default) keeps
// every instrumentation site at one pointer check.
func (t *Transaction) SetTrace(tr *obs.Trace) {
	t.mu.Lock()
	t.trace = tr
	t.mu.Unlock()
}

// Trace returns the attached span sink, or nil. Layers above capture it once
// (e.g. at store open) rather than re-reading per operation.
func (t *Transaction) Trace() *obs.Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.trace
}

// SetMeter binds the tenant meter that is charged for this transaction's
// I/O: every pair a read call makes the cluster read (snapshot and
// read-ahead reads included; reads the write buffer serves are free) and
// every buffered mutation as it is issued, from the same counts as
// TxnStats.KeysRead/BytesRead and Mutations/Size. The Runner binds the
// request tenant's meter to each attempt; nil unbinds.
func (t *Transaction) SetMeter(m Meter) {
	t.mu.Lock()
	t.meter = m
	t.mu.Unlock()
}

// Meter returns the bound tenant meter, or nil.
func (t *Transaction) Meter() Meter {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.meter
}

// LatencyNow reads the database's latency clock (the virtual clock under
// Options.Latency.Virtual, the wall clock otherwise) so layers can price
// their own trace spans in the same timebase as the read windows.
func (t *Transaction) LatencyNow() int64 { return t.db.simNow() }

// LatencyEnabled reports whether the database charges simulated I/O latency.
// Layers use it to skip future bookkeeping that buys nothing at zero latency
// (issuing a read as a future only pays off when there is a window to
// overlap).
func (t *Transaction) LatencyEnabled() bool { return t.db.opts.Latency.Enabled() }

// Stats returns the I/O accounting for this transaction so far.
func (t *Transaction) Stats() TxnStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Cancel aborts the transaction; all subsequent operations fail.
func (t *Transaction) Cancel() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.canceled = true
}

// Reset returns the transaction to a fresh state with a new read version.
func (t *Transaction) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.txnState = txnState{start: t.db.nowNanos(), readVersion: -1}
}

// applyMutations folds atomic operations over a base value. The second
// result reports that the key should be cleared (CompareAndClear matched).
func applyMutations(base []byte, ops []mutation, maxValue int) ([]byte, bool) {
	val := cloneBytes(base)
	cleared := base == nil
	for _, m := range ops {
		switch m.typ {
		case MutationAdd:
			val = addLittleEndian(val, m.param)
		case MutationBitAnd:
			val = bitOp(val, m.param, func(a, b byte) byte { return a & b })
		case MutationBitOr:
			val = bitOp(val, m.param, func(a, b byte) byte { return a | b })
		case MutationBitXor:
			val = bitOp(val, m.param, func(a, b byte) byte { return a ^ b })
		case MutationMax:
			if cleared || compareLittleEndian(m.param, val) > 0 {
				val = cloneBytes(m.param)
			}
		case MutationMin:
			if cleared || compareLittleEndian(m.param, val) < 0 {
				val = cloneBytes(m.param)
			}
		case MutationByteMax:
			if cleared || bytes.Compare(m.param, val) > 0 {
				val = cloneBytes(m.param)
			}
		case MutationByteMin:
			if cleared || bytes.Compare(m.param, val) < 0 {
				val = cloneBytes(m.param)
			}
		case MutationAppendIfFits:
			if len(val)+len(m.param) <= maxValue {
				val = append(val, m.param...)
			}
		case MutationCompareAndClear:
			if bytes.Equal(val, m.param) {
				return nil, true
			}
		}
		cleared = false
	}
	return val, false
}

// addLittleEndian adds two little-endian unsigned integers; the result has
// the parameter's length (FDB semantics), with wraparound.
func addLittleEndian(base, param []byte) []byte {
	out := make([]byte, len(param))
	var carry uint16
	for i := 0; i < len(param); i++ {
		var b byte
		if i < len(base) {
			b = base[i]
		}
		s := uint16(b) + uint16(param[i]) + carry
		out[i] = byte(s)
		carry = s >> 8
	}
	return out
}

func bitOp(base, param []byte, f func(a, b byte) byte) []byte {
	out := make([]byte, len(param))
	for i := 0; i < len(param); i++ {
		var b byte
		if i < len(base) {
			b = base[i]
		}
		out[i] = f(b, param[i])
	}
	return out
}

// compareLittleEndian compares little-endian unsigned integers of possibly
// different lengths.
func compareLittleEndian(a, b []byte) int {
	la, lb := len(a), len(b)
	n := la
	if lb > n {
		n = lb
	}
	for i := n - 1; i >= 0; i-- {
		var av, bv byte
		if i < la {
			av = a[i]
		}
		if i < lb {
			bv = b[i]
		}
		if av != bv {
			if av < bv {
				return -1
			}
			return 1
		}
	}
	return 0
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// keyAfter returns the immediate successor key (key + 0x00).
func keyAfter(key []byte) []byte {
	out := make([]byte, len(key)+1)
	copy(out, key)
	return out
}

// KeyAfter returns the immediate successor key (key + 0x00); exported for
// layers that need to construct inclusive-begin scans.
func KeyAfter(key []byte) []byte { return keyAfter(key) }
