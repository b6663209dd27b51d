package core

import (
	"fmt"

	"recordlayer/internal/bunched"
	"recordlayer/internal/cursor"
	"recordlayer/internal/index"
	"recordlayer/internal/metadata"
	"recordlayer/internal/obs"
	"recordlayer/internal/tuple"
)

// readableIndex resolves an index and verifies it may serve reads (§6: a
// write-only index must not satisfy queries).
func (s *Store) readableIndex(name string) (*metadata.Index, error) {
	ix, ok := s.md.Index(name)
	if !ok {
		return nil, fmt.Errorf("core: no index %q", name)
	}
	if st := s.IndexState(name); st != metadata.StateReadable {
		return nil, fmt.Errorf("core: index %q is %v and cannot serve reads", name, st)
	}
	return ix, nil
}

// ScanIndex streams entries of a VALUE or VERSION index over a tuple range.
func (s *Store) ScanIndex(name string, r index.TupleRange, opts index.ScanOptions) (cursor.Cursor[index.Entry], error) {
	ix, err := s.readableIndex(name)
	if err != nil {
		return nil, err
	}
	m, err := s.maintainer(ix)
	if err != nil {
		return nil, err
	}
	ictx := s.indexContext(ix)
	switch mm := m.(type) {
	case *index.ValueMaintainer:
		return mm.Scan(ictx, r, opts)
	case *index.VersionMaintainer:
		return mm.Scan(ictx, r, opts)
	case *index.RankMaintainer:
		return mm.ScanByValue(ictx, r, opts)
	default:
		return nil, fmt.Errorf("core: index %q (type %s) does not support range scans", name, ix.Type)
	}
}

// FetchIndexed resolves index entries to their records — an index scan
// followed by record fetches by primary key.
func (s *Store) FetchIndexed(entries cursor.Cursor[index.Entry]) cursor.Cursor[*StoredRecord] {
	return s.FetchIndexedSnapshot(entries, false)
}

// FetchIndexedSnapshot is FetchIndexed with optional snapshot-isolation
// record reads, so a snapshot query execution adds no read conflict ranges
// for the fetches either.
func (s *Store) FetchIndexedSnapshot(entries cursor.Cursor[index.Entry], snapshot bool) cursor.Cursor[*StoredRecord] {
	return s.FetchIndexedPipelined(entries, snapshot, 1)
}

// FetchIndexedPipelined is FetchIndexedSnapshot with up to depth record
// fetches in flight at once — the paper's asynchronous pipelining (§8): the
// fetch behind each index entry is issued as a range-read future, so the
// index scan keeps streaming (and up to depth record reads share one
// simulated latency window) while earlier entries' reads are outstanding.
// Everything runs on the consumer's goroutine — at zero latency the depth-8
// path costs the same as sequential. Results preserve entry order, halts,
// and continuations exactly; depth <= 1 is the sequential path.
func (s *Store) FetchIndexedPipelined(entries cursor.Cursor[index.Entry], snapshot bool, depth int) cursor.Cursor[*StoredRecord] {
	return cursor.MapAsync(entries, depth,
		func(e index.Entry) recordLoad {
			return s.issueLoadRecord(e.PrimaryKey, snapshot)
		},
		func(e index.Entry, l recordLoad) (*StoredRecord, error) {
			rec, err := s.awaitLoadRecord(l)
			if err != nil {
				return nil, err
			}
			if rec == nil {
				return nil, fmt.Errorf("core: index entry %v points at missing record %v", e.Key, e.PrimaryKey)
			}
			return rec, nil
		})
}

// AggregateInt64 reads a COUNT/COUNT_UPDATES/COUNT_NON_NULL/SUM value for a
// group key (§7). Pass an empty tuple for ungrouped indexes.
func (s *Store) AggregateInt64(name string, group tuple.Tuple) (int64, error) {
	ix, err := s.readableIndex(name)
	if err != nil {
		return 0, err
	}
	m, err := s.maintainer(ix)
	if err != nil {
		return 0, err
	}
	am, ok := m.(*index.AtomicMaintainer)
	if !ok {
		return 0, fmt.Errorf("core: index %q is not an aggregate index", name)
	}
	return am.GetInt64(s.indexContext(ix), group)
}

// AggregateTuple reads a MAX_EVER/MIN_EVER value for a group key (§7).
func (s *Store) AggregateTuple(name string, group tuple.Tuple) (tuple.Tuple, bool, error) {
	ix, err := s.readableIndex(name)
	if err != nil {
		return nil, false, err
	}
	m, err := s.maintainer(ix)
	if err != nil {
		return nil, false, err
	}
	am, ok := m.(*index.AtomicMaintainer)
	if !ok {
		return nil, false, fmt.Errorf("core: index %q is not an aggregate index", name)
	}
	return am.GetTuple(s.indexContext(ix), group)
}

// rankIndex resolves a RANK index's maintainer.
func (s *Store) rankIndex(name string) (*index.RankMaintainer, *index.Context, error) {
	ix, err := s.readableIndex(name)
	if err != nil {
		return nil, nil, err
	}
	m, err := s.maintainer(ix)
	if err != nil {
		return nil, nil, err
	}
	rm, ok := m.(*index.RankMaintainer)
	if !ok {
		return nil, nil, fmt.Errorf("core: index %q is not a rank index", name)
	}
	return rm, s.indexContext(ix), nil
}

// Rank returns a record's ordinal rank in a RANK index (Appendix B).
func (s *Store) Rank(name string, entry, pk tuple.Tuple) (int64, bool, error) {
	rm, ictx, err := s.rankIndex(name)
	if err != nil {
		return 0, false, err
	}
	var t0 int64
	if s.trace != nil {
		t0 = s.tr.LatencyNow()
	}
	r, ok, rerr := rm.Rank(ictx, entry, pk)
	if s.trace != nil {
		s.trace.Add(obs.SpanIndexPrefix+name, t0, s.tr.LatencyNow(), 0, "op=rank")
	}
	return r, ok, rerr
}

// RankOfValue returns the rank an indexed value would occupy.
func (s *Store) RankOfValue(name string, entry tuple.Tuple) (int64, error) {
	rm, ictx, err := s.rankIndex(name)
	if err != nil {
		return 0, err
	}
	var t0 int64
	if s.trace != nil {
		t0 = s.tr.LatencyNow()
	}
	r, rerr := rm.RankOfValue(ictx, entry)
	if s.trace != nil {
		s.trace.Add(obs.SpanIndexPrefix+name, t0, s.tr.LatencyNow(), 0, "op=rank_of_value")
	}
	return r, rerr
}

// ByRank returns the index entry at a given rank (leaderboard lookup).
func (s *Store) ByRank(name string, rank int64) (index.Entry, bool, error) {
	rm, ictx, err := s.rankIndex(name)
	if err != nil {
		return index.Entry{}, false, err
	}
	var t0 int64
	if s.trace != nil {
		t0 = s.tr.LatencyNow()
	}
	e, ok, rerr := rm.ByRank(ictx, rank)
	if s.trace != nil {
		s.trace.Add(obs.SpanIndexPrefix+name, t0, s.tr.LatencyNow(), 0, "op=by_rank")
	}
	return e, ok, rerr
}

// ScanByRank streams entries starting at a rank — the scrollbar pattern of
// Appendix B: jump to the k-th result without scanning the first k. The span
// covers the rank-to-key seek (the skip-list descent, one span for the whole
// descent rather than one per level); the streaming scan that follows is
// ordinary value-index I/O and is not part of it.
func (s *Store) ScanByRank(name string, startRank int64, opts index.ScanOptions) (cursor.Cursor[index.Entry], error) {
	rm, ictx, err := s.rankIndex(name)
	if err != nil {
		return nil, err
	}
	var t0 int64
	if s.trace != nil {
		t0 = s.tr.LatencyNow()
	}
	c, serr := rm.ScanByRank(ictx, startRank, opts)
	if s.trace != nil {
		s.trace.Add(obs.SpanIndexPrefix+name, t0, s.tr.LatencyNow(), 0, "op=scan_by_rank")
	}
	return c, serr
}

// textIndex resolves a TEXT index's maintainer.
func (s *Store) textIndex(name string) (*index.TextMaintainer, *index.Context, error) {
	ix, err := s.readableIndex(name)
	if err != nil {
		return nil, nil, err
	}
	m, err := s.maintainer(ix)
	if err != nil {
		return nil, nil, err
	}
	tm, ok := m.(*index.TextMaintainer)
	if !ok {
		return nil, nil, fmt.Errorf("core: index %q is not a text index", name)
	}
	return tm, s.indexContext(ix), nil
}

// TextSearchToken returns postings for an exact token (Appendix B).
func (s *Store) TextSearchToken(name, token string) ([]index.Posting, error) {
	tm, ictx, err := s.textIndex(name)
	if err != nil {
		return nil, err
	}
	return tm.ScanToken(ictx, token)
}

// TextSearchPrefix returns postings for all tokens with a prefix.
func (s *Store) TextSearchPrefix(name, prefix string) ([]index.Posting, error) {
	tm, ictx, err := s.textIndex(name)
	if err != nil {
		return nil, err
	}
	return tm.ScanPrefix(ictx, prefix)
}

// TextSearchAll returns primary keys of records containing every token,
// optionally within a proximity window.
func (s *Store) TextSearchAll(name string, tokens []string, maxDistance int64) ([]tuple.Tuple, error) {
	tm, ictx, err := s.textIndex(name)
	if err != nil {
		return nil, err
	}
	return tm.ContainsAll(ictx, tokens, maxDistance)
}

// TextSearchPhrase returns primary keys of records containing the phrase.
func (s *Store) TextSearchPhrase(name, phrase string) ([]tuple.Tuple, error) {
	tm, ictx, err := s.textIndex(name)
	if err != nil {
		return nil, err
	}
	return tm.ContainsPhrase(ictx, phrase)
}

// TextIndexStats reports the bunched map statistics of a TEXT index
// (Table 2).
func (s *Store) TextIndexStats(name string) (bunched.Stats, error) {
	tm, ictx, err := s.textIndex(name)
	if err != nil {
		return bunched.Stats{}, err
	}
	return tm.Stats(ictx)
}

// RebuildIndexInline rebuilds an index in this transaction by scanning every
// record — only appropriate for small stores (§5: "if there are very few or
// no records, the index can be built right away within a single
// transaction").
func (s *Store) RebuildIndexInline(name string) error {
	ix, ok := s.md.Index(name)
	if !ok {
		return fmt.Errorf("core: no index %q", name)
	}
	if err := s.clearIndexData(name); err != nil {
		return err
	}
	m, err := s.maintainer(ix)
	if err != nil {
		return err
	}
	ictx := s.indexContext(ix)
	scan := s.ScanRecords(ScanOptions{})
	for {
		r, err := scan.Next()
		if err != nil {
			return err
		}
		if !r.OK {
			if r.Reason != cursor.SourceExhausted {
				return fmt.Errorf("core: inline rebuild interrupted: %v", r.Reason)
			}
			break
		}
		if !ix.AppliesTo(r.Value.Type.Name) {
			continue
		}
		if err := index.Update(m, ictx, nil, r.Value.asIndexRecord()); err != nil {
			return err
		}
	}
	return s.MarkIndexReadable(name)
}
