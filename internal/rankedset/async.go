package rankedset

import (
	"bytes"
	"fmt"

	"recordlayer/internal/fdb"
)

// Async pipelines skip-list mutations over one transaction: IssueInsert and
// IssueDelete send every probe read an operation needs — the level-0
// membership check and one floor per level — without awaiting any, and the
// returned Op applies the mutation later. Ops issued back to back share one
// simulated latency window; a batch save's N skip-list descents cost ~1
// window instead of N×levels.
//
// Correctness rests on two facts about the simulated client. First, a future
// resolves its *data* at issue time: an op's probe reads see the
// read-your-writes state as of issue, which excludes writes applied after it
// was issued. Second, all Async writes are applied through a seq-tagged log:
// when an op resolves a probe it replays the log entries recorded after the
// probe was issued, reconstructing exactly the state a serial
// issue-read-write interleaving would have read. Ops must be applied in issue
// order (enforced), so at apply time the log holds precisely the writes of
// every earlier op.
//
// Floor resolution exploits the raw result's own guarantee: the raw floor rk
// was the greatest on-level entry ≤ the bound at issue, so any log key in
// (rk, bound] was absent at issue and replays from a zero base. Only when rk
// was cleared by a later op and no logged key dominates it does the resolver
// fall back to a fresh, read-your-writes-true floor read — rare, and always
// correct because at apply time every prior write is in the transaction
// buffer. In-level sums (the finger split on insert) are likewise read fresh
// at apply time.
type Async struct {
	rs      *RankedSet
	tr      *fdb.Transaction
	log     []logEntry
	issued  int
	applied int
}

// Async creates a pipelining view of the set over one transaction. The view
// assumes every mutation of the set's subspace in this transaction goes
// through it (or through the serial Insert/Delete, which are built on it);
// external writes between issue and apply would not be replayed.
func (rs *RankedSet) Async(tr *fdb.Transaction) *Async {
	return &Async{rs: rs, tr: tr}
}

const (
	opSet = iota
	opAdd
	opClear
)

// logEntry is one applied write: level/key identify the entry, kind and val
// the mutation. Replaying a key's entries over a base value mirrors the
// simulator's own read-your-writes materialization (atomic ADD on a missing
// key starts from zero).
type logEntry struct {
	level int
	key   string
	kind  int
	val   int64
}

// Op is one issued-but-unapplied mutation. Apply completes it, returning
// whether the set changed (insert of an absent member, delete of a present
// one) — the same results the serial Insert/Delete return.
type Op struct {
	a       *Async
	key     []byte
	insert  bool
	seq     int                // issue order, enforced at apply
	readSeq int                // log length when the probes were issued
	present *fdb.FutureValue   // level-0 membership, serializable like Contains
	floors  []*fdb.FutureRange // per level 1..levels-1
	own     []*fdb.FutureValue // in-level delete: the member's own count
}

// issueFloor starts the floor probe for one level: the greatest entry with
// entryKey <= key (inclusive) or < key (exclusive; used by in-level deletes,
// whose serial counterpart floors after clearing the member's own entry).
func (a *Async) issueFloor(level int, key []byte, inclusive bool) *fdb.FutureRange {
	begin, _ := a.rs.levelRange(level)
	end := a.rs.levelKey(level, key)
	if inclusive {
		end = fdb.KeyAfter(end)
	}
	return a.tr.Snapshot().GetRangeAsync(begin, end, fdb.RangeOptions{Limit: 1, Reverse: true})
}

// IssueInsert starts an insert: the membership probe and every level's floor
// go out together.
func (a *Async) IssueInsert(key []byte) (*Op, error) {
	return a.issue(key, true)
}

// IssueDelete starts a delete. Levels the key appears on probe the member's
// own count and floor strictly below it; other levels floor at the key.
func (a *Async) IssueDelete(key []byte) (*Op, error) {
	return a.issue(key, false)
}

func (a *Async) issue(key []byte, insert bool) (*Op, error) {
	if len(key) == 0 {
		return nil, fmt.Errorf("rankedset: empty key is reserved")
	}
	op := &Op{a: a, key: key, insert: insert, seq: a.issued, readSeq: len(a.log)}
	a.issued++
	op.present = a.tr.GetAsync(a.rs.levelKey(0, key))
	op.floors = make([]*fdb.FutureRange, a.rs.levels)
	if !insert {
		op.own = make([]*fdb.FutureValue, a.rs.levels)
	}
	for l := 1; l < a.rs.levels; l++ {
		if !insert && a.rs.inLvl(key, l) {
			op.own[l] = a.tr.GetAsync(a.rs.levelKey(l, key))
			op.floors[l] = a.issueFloor(l, key, false)
			continue
		}
		op.floors[l] = a.issueFloor(l, key, true)
	}
	return op, nil
}

// write applies one mutation to the transaction and records it in the log.
func (a *Async) write(kind, level int, key []byte, val int64) error {
	k := a.rs.levelKey(level, key)
	var err error
	switch kind {
	case opSet:
		err = a.tr.Set(k, encodeCount(val))
	case opAdd:
		err = a.tr.Atomic(fdb.MutationAdd, k, encodeCount(val))
	case opClear:
		err = a.tr.Clear(k)
	}
	if err != nil {
		return err
	}
	a.log = append(a.log, logEntry{level: level, key: string(key), kind: kind, val: val})
	return nil
}

// replayPoint folds the post-readSeq log entries for one entry over its base
// value, mirroring applyMutations' semantics for the op kinds Async emits.
func (a *Async) replayPoint(level int, key []byte, readSeq int, val int64, present bool) (int64, bool) {
	ks := string(key)
	for _, e := range a.log[readSeq:] {
		if e.level != level || e.key != ks {
			continue
		}
		switch e.kind {
		case opSet:
			val, present = e.val, true
		case opAdd:
			if !present {
				val = 0
			}
			val, present = val+e.val, true
		case opClear:
			val, present = 0, false
		}
	}
	return val, present
}

// inBound reports key <=/< bound under the floor's inclusivity.
func inBound(key, bound []byte, inclusive bool) bool {
	c := bytes.Compare(key, bound)
	if inclusive {
		return c <= 0
	}
	return c < 0
}

// resolveFloor turns an issued floor probe into the entry a serial floor read
// at apply time would return. The raw result is corrected against the log:
// the raw key may have been cleared since issue, and a later op may have
// created a greater on-level entry within the bound.
func (op *Op) resolveFloor(level int, inclusive bool) ([]byte, int64, error) {
	a := op.a
	kvs, _, err := op.floors[level].Get()
	if err != nil {
		return nil, 0, err
	}
	if len(kvs) == 0 {
		return nil, 0, fmt.Errorf("rankedset: level %d head missing; call Init", level)
	}
	rawKey, err := a.rs.entryKey(kvs[0].Key)
	if err != nil {
		return nil, 0, err
	}
	rawVal, rawLive := a.replayPoint(level, rawKey, op.readSeq, decodeCount(kvs[0].Value), true)

	// Any logged key in (rawKey, bound] was absent at issue — rawKey was the
	// greatest entry within the bound — so its replay starts from absence and
	// is fully determined by the log.
	type state struct {
		val     int64
		present bool
	}
	var overlay map[string]state
	for _, e := range a.log[op.readSeq:] {
		if e.level != level {
			continue
		}
		k := []byte(e.key)
		if bytes.Compare(k, rawKey) <= 0 || !inBound(k, op.key, inclusive) {
			continue
		}
		if overlay == nil {
			overlay = map[string]state{}
		}
		st := overlay[e.key]
		switch e.kind {
		case opSet:
			st = state{val: e.val, present: true}
		case opAdd:
			if !st.present {
				st.val = 0
			}
			st = state{val: st.val + e.val, present: true}
		case opClear:
			st = state{}
		}
		overlay[e.key] = st
	}
	best, bestVal, ok := rawKey, rawVal, rawLive
	for k, st := range overlay {
		if !st.present {
			continue
		}
		if kb := []byte(k); !ok || bytes.Compare(kb, best) > 0 {
			best, bestVal, ok = kb, st.val, true
		}
	}
	if ok {
		return best, bestVal, nil
	}
	// The raw floor was cleared and nothing above it survives: the true floor
	// lies below rawKey, outside what was read. Reread fresh — at apply time
	// every earlier write is in the transaction buffer, so the plain read is
	// exact. The head entry is never cleared, so this terminates.
	begin, _ := a.rs.levelRange(level)
	end := a.rs.levelKey(level, op.key)
	if inclusive {
		end = fdb.KeyAfter(end)
	}
	again, _, err := a.tr.Snapshot().GetRange(begin, end, fdb.RangeOptions{Limit: 1, Reverse: true})
	if err != nil {
		return nil, 0, err
	}
	if len(again) == 0 {
		return nil, 0, fmt.Errorf("rankedset: level %d head missing; call Init", level)
	}
	floor, err := a.rs.entryKey(again[0].Key)
	return floor, decodeCount(again[0].Value), err
}

// resolvePresent resolves the level-0 membership probe.
func (op *Op) resolvePresent() (int64, bool, error) {
	raw, err := op.present.Get()
	if err != nil {
		return 0, false, err
	}
	val, present := int64(0), false
	if raw != nil {
		val, present = decodeCount(raw), true
	}
	val, present = op.a.replayPoint(0, op.key, op.readSeq, val, present)
	return val, present, nil
}

// Apply completes the op: resolves its probes and applies the mutation. Ops
// must be applied in the order they were issued.
func (op *Op) Apply() (bool, error) {
	if op.seq != op.a.applied {
		return false, fmt.Errorf("rankedset: op issued %d applied out of order (expect %d)", op.seq, op.a.applied)
	}
	op.a.applied++
	if op.insert {
		return op.applyInsert()
	}
	return op.applyDelete()
}

func (op *Op) applyInsert() (bool, error) {
	a := op.a
	_, present, err := op.resolvePresent()
	if err != nil {
		return false, err
	}
	if present {
		return false, nil
	}
	if err := a.write(opSet, 0, op.key, 1); err != nil {
		return false, err
	}
	for l := 1; l < a.rs.levels; l++ {
		prev, prevCount, err := op.resolveFloor(l, true)
		if err != nil {
			return false, err
		}
		if !a.rs.inLvl(op.key, l) {
			// The covering finger skips one more member; atomic ADD keeps
			// concurrent inserts conflict-free (§10.1).
			if err := a.write(opAdd, l, prev, 1); err != nil {
				return false, err
			}
			continue
		}
		// Split prev's finger. Lower levels are already applied (level order
		// within the op, issue order across ops), so the fresh sum over
		// [prev, key) is exact.
		below, err := a.rs.sumBelow(a.tr, l-1, prev, op.key)
		if err != nil {
			return false, err
		}
		if err := a.write(opSet, l, prev, below); err != nil {
			return false, err
		}
		if err := a.write(opSet, l, op.key, prevCount+1-below); err != nil {
			return false, err
		}
	}
	return true, nil
}

func (op *Op) applyDelete() (bool, error) {
	a := op.a
	_, present, err := op.resolvePresent()
	if err != nil {
		return false, err
	}
	if !present {
		return false, nil
	}
	if err := a.write(opClear, 0, op.key, 0); err != nil {
		return false, err
	}
	for l := 1; l < a.rs.levels; l++ {
		if !a.rs.inLvl(op.key, l) {
			prev, _, err := op.resolveFloor(l, true)
			if err != nil {
				return false, err
			}
			if err := a.write(opAdd, l, prev, -1); err != nil {
				return false, err
			}
			continue
		}
		// Merge the member's finger back into its predecessor. The floor
		// probe's bound is exclusive, matching the serial path's floor after
		// clearing the member's own entry.
		raw, err := op.own[l].Get()
		if err != nil {
			return false, err
		}
		val, pres := int64(0), false
		if raw != nil {
			val, pres = decodeCount(raw), true
		}
		count, _ := a.replayPoint(l, op.key, op.readSeq, val, pres)
		if err := a.write(opClear, l, op.key, 0); err != nil {
			return false, err
		}
		prev, prevCount, err := op.resolveFloor(l, false)
		if err != nil {
			return false, err
		}
		if err := a.write(opSet, l, prev, prevCount+count-1); err != nil {
			return false, err
		}
	}
	return true, nil
}
