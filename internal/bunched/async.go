package bunched

import (
	"bytes"
	"fmt"
	"sort"

	"recordlayer/internal/fdb"
	"recordlayer/internal/tuple"
)

// Async pipelines bunched-map mutations over one transaction: IssueInsert and
// IssueDelete send the boundary reads an operation needs — the locate scan,
// and for inserts the forward neighbor scan — without awaiting any, and the
// returned Op applies the rewrite later. A text-heavy save's token updates
// issue all their boundary reads in one latency window instead of one per
// token.
//
// The same seq-tagged write-log scheme as rankedset.Async keeps resolution
// exact (see that type's doc): futures capture the read-your-writes state as
// of issue, every Async write is logged, and resolving a boundary read
// replays the log entries recorded after it was issued. A locate's raw
// result was the greatest physical key within its bound at issue, so any
// logged key between them was absent at issue and is fully described by the
// log; symmetrically for the neighbor scan's least key. Only a cleared raw
// candidate with no dominating logged bunch forces a fresh (and exact,
// read-your-writes) reread. Ops must be applied in issue order.
type Async struct {
	m       *Map
	tr      *fdb.Transaction
	log     []bunchLog
	issued  int
	applied int
}

// bunchLog is one applied write: a physical bunch set (val != nil) or clear.
type bunchLog struct {
	key string
	val []byte
}

// Async creates a pipelining view of the map over one transaction. Every
// mutation of the map's subspace in this transaction must go through it for
// the log replay to be complete.
func (m *Map) Async(tr *fdb.Transaction) *Async {
	return &Async{m: m, tr: tr}
}

// Op is one issued-but-unapplied mutation.
type Op struct {
	a       *Async
	token   string
	pk      tuple.Tuple
	offsets []int64
	insert  bool
	seq     int
	readSeq int
	locate  *fdb.FutureRange
	next    *fdb.FutureRange
}

// IssueInsert starts an insert/upsert of (token, pk) -> offsets. Both
// boundary scans go out: the neighbor read is consumed only on the spill
// path, but issuing it up front keeps the op at one latency window. The
// spill entry's primary key is always >= pk and below the next bunch's
// anchor, so the one neighbor scan serves either spill shape.
func (a *Async) IssueInsert(token string, pk tuple.Tuple, offsets []int64) *Op {
	op := &Op{a: a, token: token, pk: pk, offsets: offsets, insert: true,
		seq: a.issued, readSeq: len(a.log)}
	a.issued++
	begin, _ := a.m.space.RangeForTuple(tuple.Tuple{token})
	logical := a.m.key(token, pk)
	op.locate = a.tr.GetRangeAsync(begin, fdb.KeyAfter(logical), fdb.RangeOptions{Limit: 1, Reverse: true})
	_, end := a.m.space.RangeForTuple(tuple.Tuple{token})
	op.next = a.tr.GetRangeAsync(fdb.KeyAfter(logical), end, fdb.RangeOptions{Limit: 1})
	return op
}

// IssueDelete starts a delete of (token, pk); only the locate scan is needed.
func (a *Async) IssueDelete(token string, pk tuple.Tuple) *Op {
	op := &Op{a: a, token: token, pk: pk, seq: a.issued, readSeq: len(a.log)}
	a.issued++
	begin, _ := a.m.space.RangeForTuple(tuple.Tuple{token})
	op.locate = a.tr.GetRangeAsync(begin, fdb.KeyAfter(a.m.key(token, pk)), fdb.RangeOptions{Limit: 1, Reverse: true})
	return op
}

// write applies a bunch set/clear to the transaction and records it.
func (a *Async) write(key []byte, val []byte) error {
	var err error
	if val == nil {
		err = a.tr.Clear(key)
	} else {
		err = a.tr.Set(key, val)
	}
	if err != nil {
		return err
	}
	a.log = append(a.log, bunchLog{key: string(key), val: val})
	return nil
}

// replayKey folds post-readSeq log entries for one physical key over its base
// value (nil = absent).
func (a *Async) replayKey(key []byte, readSeq int, base []byte) []byte {
	ks := string(key)
	for _, e := range a.log[readSeq:] {
		if e.key == ks {
			base = e.val
		}
	}
	return base
}

// resolved is a boundary read's outcome: the physical pair a serial read at
// apply time would have returned.
type resolved struct {
	key []byte
	val []byte
	ok  bool
}

// resolveBoundary corrects a limit-1 scan over [begin, end) against the log.
// reverse selects the greatest key (locate), forward the least (neighbor).
func (op *Op) resolveBoundary(fut *fdb.FutureRange, begin, end []byte, reverse bool) (resolved, error) {
	a := op.a
	kvs, _, err := fut.Get()
	if err != nil {
		return resolved{}, err
	}
	var raw resolved
	if len(kvs) > 0 {
		raw = resolved{key: kvs[0].Key, val: a.replayKey(kvs[0].Key, op.readSeq, kvs[0].Value), ok: true}
		if raw.val == nil {
			raw.ok = false
		}
	}
	// Logged keys strictly between the raw result and the scanned bound were
	// absent at issue; their latest logged value is their exact state.
	best := raw
	seen := map[string]bool{}
	for _, e := range a.log[op.readSeq:] {
		if seen[e.key] {
			continue // replayKey folds every entry for the key at once
		}
		seen[e.key] = true
		k := []byte(e.key)
		if bytes.Compare(k, begin) < 0 || bytes.Compare(k, end) >= 0 {
			continue
		}
		if len(kvs) > 0 {
			// Inside (raw, bound] for reverse scans, [bound, raw) for forward.
			if reverse && bytes.Compare(k, kvs[0].Key) <= 0 {
				continue
			}
			if !reverse && bytes.Compare(k, kvs[0].Key) >= 0 {
				continue
			}
		}
		v := a.replayKey(k, op.readSeq, nil)
		if v == nil {
			continue
		}
		if !best.ok ||
			(reverse && bytes.Compare(k, best.key) > 0) ||
			(!reverse && bytes.Compare(k, best.key) < 0) {
			best = resolved{key: k, val: v, ok: true}
		}
	}
	if best.ok {
		return best, nil
	}
	if len(kvs) == 0 {
		// Nothing in the database at issue and nothing logged: truly empty.
		return resolved{}, nil
	}
	// The raw candidate was cleared since issue and no logged bunch
	// dominates it: the true boundary lies beyond what was read. Reread
	// fresh — at apply time every earlier write is in the transaction
	// buffer, so the plain scan is exact.
	again, _, err := a.tr.GetRange(begin, end, fdb.RangeOptions{Limit: 1, Reverse: reverse})
	if err != nil {
		return resolved{}, err
	}
	if len(again) == 0 {
		return resolved{}, nil
	}
	return resolved{key: again[0].Key, val: again[0].Value, ok: true}, nil
}

// Apply completes the op. For inserts the boolean result is always true; for
// deletes it reports whether (token, pk) was present.
func (op *Op) Apply() (bool, error) {
	if op.seq != op.a.applied {
		return false, fmt.Errorf("bunched: op issued %d applied out of order (expect %d)", op.seq, op.a.applied)
	}
	op.a.applied++
	if op.insert {
		return true, op.applyInsert()
	}
	return op.applyDelete()
}

func (op *Op) applyInsert() error {
	a := op.a
	begin, endTok := a.m.space.RangeForTuple(tuple.Tuple{op.token})
	logical := a.m.key(op.token, op.pk)
	loc, err := op.resolveBoundary(op.locate, begin, fdb.KeyAfter(logical), true)
	if err != nil {
		return err
	}
	newEntry := Entry{PK: op.pk, Offsets: op.offsets}
	if loc.ok {
		_, entries, err := a.m.decodeBunch(loc.key, loc.val)
		if err != nil {
			return err
		}
		idx := sort.Search(len(entries), func(i int) bool { return pkCompare(entries[i].PK, op.pk) >= 0 })
		if idx < len(entries) && pkCompare(entries[idx].PK, op.pk) == 0 {
			entries[idx] = newEntry
			return a.write(loc.key, encodeBunch(entries))
		}
		entries = append(entries, Entry{})
		copy(entries[idx+1:], entries[idx:])
		entries[idx] = newEntry
		if len(entries) <= a.m.bunchSize {
			return a.write(loc.key, encodeBunch(entries))
		}
		// Overflow: evict the biggest primary key, then absorb the neighbor
		// bunch when the result fits.
		spill := entries[len(entries)-1]
		entries = entries[:len(entries)-1]
		if err := a.write(loc.key, encodeBunch(entries)); err != nil {
			return err
		}
		return op.applySpill(spill, fdb.KeyAfter(logical), endTok)
	}
	return op.applySpill(newEntry, fdb.KeyAfter(logical), endTok)
}

// applySpill writes entry as a new bunch, merging the following bunch into it
// when the combination fits — insertSpill resolved through the pipeline.
func (op *Op) applySpill(entry Entry, nbrBegin, nbrEnd []byte) error {
	a := op.a
	nbr, err := op.resolveBoundary(op.next, nbrBegin, nbrEnd, false)
	if err != nil {
		return err
	}
	bunch := []Entry{entry}
	if nbr.ok {
		_, nEntries, err := a.m.decodeBunch(nbr.key, nbr.val)
		if err != nil {
			return err
		}
		if len(nEntries)+1 <= a.m.bunchSize {
			if err := a.write(nbr.key, nil); err != nil {
				return err
			}
			bunch = append(bunch, nEntries...)
		}
	}
	return a.write(a.m.key(op.token, entry.PK), encodeBunch(bunch))
}

func (op *Op) applyDelete() (bool, error) {
	a := op.a
	begin, _ := a.m.space.RangeForTuple(tuple.Tuple{op.token})
	loc, err := op.resolveBoundary(op.locate, begin, fdb.KeyAfter(a.m.key(op.token, op.pk)), true)
	if err != nil {
		return false, err
	}
	if !loc.ok {
		return false, nil
	}
	_, entries, err := a.m.decodeBunch(loc.key, loc.val)
	if err != nil {
		return false, err
	}
	idx := -1
	for i, e := range entries {
		if pkCompare(e.PK, op.pk) == 0 {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false, nil
	}
	if len(entries) == 1 {
		return true, a.write(loc.key, nil)
	}
	entries = append(entries[:idx], entries[idx+1:]...)
	if idx == 0 {
		// The bunch's key carried this primary key: re-anchor at the next.
		if err := a.write(loc.key, nil); err != nil {
			return false, err
		}
		return true, a.write(a.m.key(op.token, entries[0].PK), encodeBunch(entries))
	}
	return true, a.write(loc.key, encodeBunch(entries))
}
