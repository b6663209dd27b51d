package core

import (
	"bytes"
	"context"
	"fmt"

	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/metadata"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// Scrub issue kinds.
const (
	// ScrubDangling is an index entry with no matching record: the record is
	// gone, or exists but no longer produces that entry.
	ScrubDangling = "dangling"
	// ScrubMissing is an entry a record should have but the index lacks.
	ScrubMissing = "missing"
	// ScrubMismatch is an entry present under the right key whose stored
	// covering value differs from what the record produces.
	ScrubMismatch = "mismatch"
)

// ScrubIssue is one inconsistency found by the scrubber.
type ScrubIssue struct {
	Kind  string // ScrubDangling, ScrubMissing, or ScrubMismatch
	Index string
	Entry index.Entry
}

func (i ScrubIssue) String() string {
	return fmt.Sprintf("%s: index %q key=%v pk=%v", i.Kind, i.Index, i.Entry.Key, i.Entry.PrimaryKey)
}

// ScrubReport summarizes one Scrub pass.
type ScrubReport struct {
	Index string
	// EntriesScanned counts physical index entries verified (entry→record).
	EntriesScanned int
	// RecordsScanned counts records verified (record→entry).
	RecordsScanned int
	// Issues lists every inconsistency found, in scan order.
	Issues []ScrubIssue
	// Repaired counts issues fixed in place (Repair mode only).
	Repaired int
}

// Clean reports that no inconsistency was found.
func (r *ScrubReport) Clean() bool { return len(r.Issues) == 0 }

// Count returns the number of issues of the given kind.
func (r *ScrubReport) Count(kind string) int {
	n := 0
	for _, i := range r.Issues {
		if i.Kind == kind {
			n++
		}
	}
	return n
}

// Scrubber verifies a VALUE index against its records in both directions,
// the index scrubbing the paper's §6 prescribes for defense in depth: every
// physical entry must point at a live record that still produces it
// (entry→record), and every entry a record produces must exist with the
// right covering value (record→entry). The scan runs in bounded batches —
// one transaction each, resumed by continuation — so arbitrarily large
// stores scrub without hitting transaction limits, and every read is a
// snapshot read so the scrubber never aborts foreground writers.
//
// Scrubbing requires the index readable: a write-only index is legitimately
// incomplete while its build is in flight. With Repair set, dangling entries
// are cleared and missing or mismatched entries rewritten in the same batch
// transaction that found them; repairs are idempotent, so a batch whose
// commit fate is unknown safely re-runs.
type Scrubber struct {
	DB        *fdb.Database
	MetaData  *metadata.MetaData
	Space     subspace.Subspace
	IndexName string
	// BatchSize bounds entries (direction one) or records (direction two)
	// verified per transaction; default 128.
	BatchSize int
	// Repair fixes inconsistencies in place instead of only reporting them.
	Repair bool
	Config Config
}

// scrubBatch is one batch transaction's result, returned through the closure
// so retries never double-fold into captured state.
type scrubBatch struct {
	issues   []ScrubIssue
	repaired int
	cont     []byte
	n        int
	done     bool
}

// Scrub runs both verification directions and returns the combined report.
// The context is checked at every batch boundary.
func (o *Scrubber) Scrub(ctx context.Context) (*ScrubReport, error) {
	ix, ok := o.MetaData.Index(o.IndexName)
	if !ok {
		return nil, fmt.Errorf("core: no index %q", o.IndexName)
	}
	if ix.Type != metadata.IndexValue {
		return nil, fmt.Errorf("core: scrubber supports VALUE indexes; %q has type %s", ix.Name, ix.Type)
	}
	batch := o.BatchSize
	if batch <= 0 {
		batch = 128
	}
	rep := &ScrubReport{Index: o.IndexName}

	// Direction one: every physical entry points at a record producing it.
	var cont []byte
	for {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		b, err := o.entryBatch(ctx, cont, batch)
		if err != nil {
			return rep, err
		}
		rep.EntriesScanned += b.n
		rep.Issues = append(rep.Issues, b.issues...)
		rep.Repaired += b.repaired
		if b.done {
			break
		}
		cont = b.cont
	}

	// Direction two: every entry a record produces exists, value included.
	cont = nil
	for {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		b, err := o.recordBatch(ctx, cont, batch)
		if err != nil {
			return rep, err
		}
		rep.RecordsScanned += b.n
		rep.Issues = append(rep.Issues, b.issues...)
		rep.Repaired += b.repaired
		if b.done {
			break
		}
		cont = b.cont
	}
	return rep, nil
}

// open opens the store and resolves the scrubbed index's value maintainer,
// refusing to scrub an index that is not readable.
func (o *Scrubber) open(tr *fdb.Transaction) (*Store, *index.ValueMaintainer, error) {
	s, err := Open(tr, o.MetaData, o.Space, OpenOptions{Config: o.Config})
	if err != nil {
		return nil, nil, err
	}
	if st := s.IndexState(o.IndexName); st != metadata.StateReadable {
		return nil, nil, fmt.Errorf("core: index %q is %s; scrub requires a readable index", o.IndexName, st)
	}
	ix, _ := s.md.Index(o.IndexName)
	m, err := s.maintainer(ix)
	if err != nil {
		return nil, nil, err
	}
	vm, ok := m.(*index.ValueMaintainer)
	if !ok {
		return nil, nil, fmt.Errorf("core: index %q maintainer is not a value maintainer", o.IndexName)
	}
	return s, vm, nil
}

// entryBatch verifies up to batch physical entries starting after cont.
func (o *Scrubber) entryBatch(ctx context.Context, cont []byte, batch int) (scrubBatch, error) {
	//rl:idempotent snapshot verification plus repairs that clear/rewrite the same keys; re-running a maybe-committed batch converges
	v, err := o.DB.TransactIdempotent(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, vm, err := o.open(tr)
		if err != nil {
			return nil, err
		}
		ispace := s.indexSpace(o.IndexName)
		begin, end := ispace.Range()
		if len(cont) > 0 {
			begin = fdb.KeyAfter(cont)
		}
		kvs, _, err := s.tr.Snapshot().GetRange(begin, end, fdb.RangeOptions{Limit: batch})
		if err != nil {
			return nil, err
		}
		res := scrubBatch{done: len(kvs) < batch}
		for _, kv := range kvs {
			res.cont = kv.Key
			res.n++
			e, derr := vm.DecodeEntry(ispace, kv)
			healthy := false
			if derr == nil {
				// The entry's primary key names a record; the entry is
				// healthy iff that record exists and still produces this
				// index key. (Covering-value drift is direction two's job —
				// the same physical key gets probed from the record side.)
				rec, lerr := s.loadRecordByKey(e.PrimaryKey, true)
				if lerr != nil {
					return nil, lerr
				}
				if rec != nil {
					exp, eerr := vm.ExpectedEntries(rec.asIndexRecord())
					if eerr != nil {
						return nil, eerr
					}
					for _, x := range exp {
						if tuple.Compare(x.Key, e.Key) == 0 {
							healthy = true
							break
						}
					}
				}
			}
			if !healthy {
				res.issues = append(res.issues, ScrubIssue{Kind: ScrubDangling, Index: o.IndexName, Entry: e})
				if o.Repair {
					if err := tr.Clear(kv.Key); err != nil {
						return nil, err
					}
					res.repaired++
				}
			}
		}
		return res, nil
	})
	if err != nil {
		return scrubBatch{}, err
	}
	return v.(scrubBatch), nil
}

// recordBatch verifies up to batch records' expected entries starting from
// the ScanRecords continuation cont.
func (o *Scrubber) recordBatch(ctx context.Context, cont []byte, batch int) (scrubBatch, error) {
	//rl:idempotent snapshot verification plus repairs that rewrite the same entry keys; re-running a maybe-committed batch converges
	v, err := o.DB.TransactIdempotent(ctx, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, vm, err := o.open(tr)
		if err != nil {
			return nil, err
		}
		ispace := s.indexSpace(o.IndexName)
		scan := s.ScanRecords(ScanOptions{Continuation: cont, Snapshot: true})
		res := scrubBatch{}
		for res.n < batch {
			r, err := scan.Next()
			if err != nil {
				return nil, err
			}
			if !r.OK {
				if r.Reason != cursor.SourceExhausted {
					return nil, fmt.Errorf("core: scrub record scan halted: %v", r.Reason)
				}
				res.done = true
				break
			}
			res.cont = r.Continuation
			res.n++
			exp, err := vm.ExpectedEntries(r.Value.asIndexRecord())
			if err != nil {
				return nil, err
			}
			for _, x := range exp {
				ek := vm.EntryKey(ispace, x)
				want := vm.EntryValue(x)
				kvs, _, err := s.tr.Snapshot().GetRange(ek, fdb.KeyAfter(ek), fdb.RangeOptions{Limit: 1})
				if err != nil {
					return nil, err
				}
				kind := ""
				if len(kvs) == 0 {
					kind = ScrubMissing
				} else if !bytes.Equal(kvs[0].Value, want) {
					kind = ScrubMismatch
				}
				if kind == "" {
					continue
				}
				res.issues = append(res.issues, ScrubIssue{Kind: kind, Index: o.IndexName, Entry: x})
				if o.Repair {
					if err := tr.Set(ek, want); err != nil {
						return nil, err
					}
					res.repaired++
				}
			}
		}
		return res, nil
	})
	if err != nil {
		return scrubBatch{}, err
	}
	return v.(scrubBatch), nil
}
