package core

import (
	"encoding/json"
	"fmt"
	"maps"

	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/metadata"
	"recordlayer/internal/obs"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// FormatVersion is the storage format version written into store headers;
// bumped when the layer changes how it encodes data (§5).
const FormatVersion = 1

// Subspace layout within a record store (first tuple element).
const (
	headerSub   = 0 // (0)                    -> store header
	recordsSub  = 1 // (1, pk..., suffix)     -> record data + version slot
	indexSub    = 2 // (2, indexName, ...)    -> index data
	stateSub    = 3 // (3, indexName)         -> index state
	progressSub = 4 // (4, indexName)         -> online build progress
)

// Record split suffixes (§4): the version slot immediately precedes the
// record data so both are fetched with one range read.
const (
	versionSuffix = -1 // 12-byte commit version of the last modification
	unsplitRecord = 0  // whole record in one pair
	// split records use suffixes 1..n
)

// Header is the record store header, kept in a single key-value pair and
// checked on every open (§5): it tracks the highest metadata version the
// store was accessed with, the storage format version, and an application
// version for client-driven data migrations.
type Header struct {
	MetaDataVersion int `json:"metadata_version"`
	FormatVersion   int `json:"format_version"`
	UserVersion     int `json:"user_version"`
}

// Config customizes store behavior.
type Config struct {
	// Serializer transforms record bytes (default: identity).
	Serializer Serializer
	// SplitChunkSize bounds each stored chunk of a split record (default
	// 90_000 bytes, within FoundationDB's 100 kB value limit).
	SplitChunkSize int
	// InlineBuildLimit is the most records for which a newly added index is
	// built immediately inside the opening transaction (§5); larger stores
	// leave the index disabled for the online indexer.
	InlineBuildLimit int
}

func (c Config) withDefaults() Config {
	if c.Serializer == nil {
		c.Serializer = IdentitySerializer{}
	}
	if c.SplitChunkSize <= 0 {
		c.SplitChunkSize = 90_000
	}
	if c.InlineBuildLimit <= 0 {
		c.InlineBuildLimit = 100
	}
	return c
}

// Store is a record store bound to one transaction, in the style of a
// per-request database connection (§5: "low-overhead, per request,
// connections to a particular database").
type Store struct {
	tr    *fdb.Transaction
	md    *metadata.MetaData
	space subspace.Subspace
	cfg   Config
	// trace is the transaction's trace, captured once at open so hot paths
	// pay one nil check instead of a mutex-guarded lookup per operation.
	trace *obs.Trace

	header      Header
	userVersion uint16 // per-transaction counter for versionstamps (§7)

	maintainers map[string]index.Maintainer
	// indexStates holds every index whose state is not the readable
	// default, read (or taken from the StoreStateCache) at open. All state
	// changes flow through setIndexState and clearIndexData, which keep it
	// current for the rest of the transaction.
	indexStates map[string]metadata.IndexState
}

// OpenOptions controls store opening.
type OpenOptions struct {
	// CreateIfMissing writes a fresh header when the store does not exist.
	CreateIfMissing bool
	Config          Config
	// StateCache, when set, serves the header and index states of a store
	// whose state has not changed since the cache read it, so the open
	// issues no read (see StoreStateCache). Nil reads them on every open.
	StateCache *StoreStateCache
}

// ErrStaleMetaData is returned when the store header records a newer
// metadata version than the caller supplied: the client cache is stale (§5).
type ErrStaleMetaData struct {
	StoreVersion, ClientVersion int
}

func (e *ErrStaleMetaData) Error() string {
	return fmt.Sprintf("core: store was accessed with metadata version %d but client has %d; refresh the metadata cache",
		e.StoreVersion, e.ClientVersion)
}

// Open opens (or creates) the record store in space, verifying the header
// against the supplied metadata and applying pending schema changes: newly
// added indexes are enabled, built inline, or left for the online indexer;
// removed indexes have their data cleared (§5). The header and every index
// state are read together in one round trip, or taken from
// opts.StateCache with no read at all.
func Open(tr *fdb.Transaction, md *metadata.MetaData, space subspace.Subspace, opts OpenOptions) (*Store, error) {
	s := &Store{tr: tr, md: md, space: space, cfg: opts.Config.withDefaults(),
		trace: tr.Trace(), maintainers: make(map[string]index.Maintainer)}
	cache := opts.StateCache
	var mv []byte
	if cache != nil {
		v, err := tr.MetadataVersion()
		switch {
		case err == nil:
			mv = v
		case fdb.IsAccessedUnreadable(err):
			// This transaction changed some store's state: what it would
			// read or fill is not what the metadata version vouches for.
			cache = nil
		default:
			return nil, err
		}
	}
	cached, hit := storeState{}, false
	if cache != nil {
		cached, hit = cache.get(mv, space.Bytes())
	}
	if hit {
		// The reads a miss would have made still bound the transaction:
		// a concurrent state change aborts it at commit, as it would have.
		tr.AddReadConflictKey(s.headerKey())
		tr.AddReadConflictRange(s.stateRange())
		s.header, s.indexStates = cached.header, maps.Clone(cached.states)
	} else {
		raw, states, err := s.readStoreState()
		if err != nil {
			return nil, err
		}
		s.indexStates = states
		if raw == nil {
			if !opts.CreateIfMissing {
				return nil, fmt.Errorf("core: record store does not exist")
			}
			s.header = Header{MetaDataVersion: md.Version, FormatVersion: FormatVersion}
			return s, s.writeHeader()
		}
		if err := json.Unmarshal(raw, &s.header); err != nil {
			return nil, fmt.Errorf("core: corrupt store header: %v", err)
		}
		if cache != nil {
			cache.put(mv, space.Bytes(), storeState{header: s.header, states: states})
		}
	}
	if s.header.FormatVersion > FormatVersion {
		return nil, fmt.Errorf("core: store uses format version %d, newer than supported %d",
			s.header.FormatVersion, FormatVersion)
	}
	switch {
	case s.header.MetaDataVersion > md.Version:
		return nil, &ErrStaleMetaData{StoreVersion: s.header.MetaDataVersion, ClientVersion: md.Version}
	case s.header.MetaDataVersion < md.Version:
		if err := s.applyMetaDataChanges(); err != nil {
			return nil, err
		}
		s.header.MetaDataVersion = md.Version
		if err := s.writeHeader(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *Store) headerKey() []byte { return s.space.Pack(tuple.Tuple{headerSub}) }

// stateRange is the index-state subspace: one key per non-readable index.
func (s *Store) stateRange() ([]byte, []byte) {
	return s.space.RangeForTuple(tuple.Tuple{stateSub})
}

// readStoreState reads the store header and the whole index-state subspace
// in one round trip — both reads are issued before either is awaited. It
// returns the raw header (nil when the store does not exist) and the decoded
// non-readable index states.
func (s *Store) readStoreState() ([]byte, map[string]metadata.IndexState, error) {
	begin, end := s.stateRange()
	header := s.tr.GetAsync(s.headerKey())
	states := s.tr.GetRangeAsync(begin, end, fdb.RangeOptions{})
	raw, herr := header.Get()
	kvs, _, err := states.Get()
	if herr != nil {
		return nil, nil, herr
	}
	if err != nil {
		return nil, nil, err
	}
	st, err := s.decodeIndexStates(kvs)
	return raw, st, err
}

// decodeIndexStates parses the index-state subspace's pairs.
func (s *Store) decodeIndexStates(kvs []fdb.KeyValue) (map[string]metadata.IndexState, error) {
	if len(kvs) == 0 {
		return nil, nil
	}
	states := make(map[string]metadata.IndexState, len(kvs))
	for _, kv := range kvs {
		k, err := s.space.Unpack(kv.Key)
		if err != nil {
			return nil, err
		}
		v, err := tuple.Unpack(kv.Value)
		if err != nil {
			return nil, err
		}
		states[k[1].(string)] = metadata.IndexState(v[0].(int64))
	}
	return states, nil
}

func (s *Store) writeHeader() error {
	blob, err := json.Marshal(s.header)
	if err != nil {
		return err
	}
	if err := s.tr.Set(s.headerKey(), blob); err != nil {
		return err
	}
	return s.tr.BumpMetadataVersion()
}

// Header returns the store header as read or updated by Open.
func (s *Store) Header() Header { return s.header }

// SetUserVersion records the client-managed application version (§5).
func (s *Store) SetUserVersion(v int) error {
	s.header.UserVersion = v
	return s.writeHeader()
}

// MetaData returns the schema the store was opened with.
func (s *Store) MetaData() *metadata.MetaData { return s.md }

// Subspace returns the store's subspace.
func (s *Store) Subspace() subspace.Subspace { return s.space }

// TxnStats returns the underlying transaction's I/O counters. Plan execution
// takes before/after snapshots around each leaf cursor step to attribute
// simulator reads to plan nodes (EXPLAIN ANALYZE).
func (s *Store) TxnStats() fdb.TxnStats { return s.tr.Stats() }

// applyMetaDataChanges reconciles the store with a newer schema version.
func (s *Store) applyMetaDataChanges() error {
	stored := s.header.MetaDataVersion
	// Drop data of indexes removed since the stored version (§5).
	for name, removedAt := range s.md.FormerIndexes {
		if removedAt > stored {
			if err := s.clearIndexData(name); err != nil {
				return err
			}
		}
	}
	// Enable or schedule newly added indexes (§5): on a new record type the
	// index is usable immediately; otherwise build inline when the store is
	// small, or leave it disabled for the online index builder.
	for _, ix := range s.md.Indexes() {
		if ix.AddedVersion <= stored {
			continue
		}
		onlyNewTypes := len(ix.RecordTypes) > 0
		for _, tn := range ix.RecordTypes {
			if rt, ok := s.md.RecordType(tn); !ok || rt.SinceVersion <= stored {
				onlyNewTypes = false
			}
		}
		if onlyNewTypes {
			continue // no existing records of these types: readable by default
		}
		n, err := s.countRecordsUpTo(s.cfg.InlineBuildLimit + 1)
		if err != nil {
			return err
		}
		if n == 0 {
			continue // empty store: readable by default
		}
		if n <= s.cfg.InlineBuildLimit {
			if err := s.RebuildIndexInline(ix.Name); err != nil {
				return err
			}
			continue
		}
		if err := s.setIndexState(ix.Name, metadata.StateDisabled); err != nil {
			return err
		}
	}
	return nil
}

// countRecordsUpTo counts primary record pairs, stopping at limit.
func (s *Store) countRecordsUpTo(limit int) (int, error) {
	begin, end := s.space.RangeForTuple(tuple.Tuple{recordsSub})
	kvs, _, err := s.tr.Snapshot().GetRange(begin, end, fdb.RangeOptions{Limit: limit})
	if err != nil {
		return 0, err
	}
	return len(kvs), nil
}

// indexSpace returns an index's dedicated subspace (§6).
func (s *Store) indexSpace(name string) subspace.Subspace {
	return s.space.Sub(indexSub, name)
}

// IndexSubspace exposes an index's dedicated subspace for tooling — the
// scrubber demo and debugging utilities that inspect (or deliberately
// corrupt) physical entries. Foreground code should go through ScanIndex.
func (s *Store) IndexSubspace(name string) subspace.Subspace {
	return s.indexSpace(name)
}

func (s *Store) stateKey(name string) []byte {
	return s.space.Pack(tuple.Tuple{stateSub, name})
}

// IndexState reports an index's lifecycle state; indexes default to readable
// unless explicitly marked (§6). Open loaded every state, so this reads
// nothing.
func (s *Store) IndexState(name string) metadata.IndexState {
	if st, ok := s.indexStates[name]; ok {
		return st
	}
	return metadata.StateReadable
}

func (s *Store) setIndexState(name string, st metadata.IndexState) error {
	if st == metadata.StateReadable {
		if err := s.tr.Clear(s.stateKey(name)); err != nil {
			return err
		}
		delete(s.indexStates, name)
		return s.tr.BumpMetadataVersion()
	}
	if err := s.tr.Set(s.stateKey(name), tuple.Tuple{int64(st)}.Pack()); err != nil {
		return err
	}
	if s.indexStates == nil {
		s.indexStates = make(map[string]metadata.IndexState)
	}
	s.indexStates[name] = st
	return s.tr.BumpMetadataVersion()
}

// MarkIndexWriteOnly moves an index to the write-only state: maintained by
// writes, not yet readable (§6).
func (s *Store) MarkIndexWriteOnly(name string) error {
	return s.setIndexState(name, metadata.StateWriteOnly)
}

// MarkIndexReadable marks an index fully built.
func (s *Store) MarkIndexReadable(name string) error {
	return s.setIndexState(name, metadata.StateReadable)
}

// MarkIndexDisabled disables maintenance entirely.
func (s *Store) MarkIndexDisabled(name string) error {
	return s.setIndexState(name, metadata.StateDisabled)
}

// clearIndexData removes all data, state and progress for an index — one
// cheap range clear per subspace (§6).
func (s *Store) clearIndexData(name string) error {
	b, e := s.indexSpace(name).Range()
	if err := s.tr.ClearRange(b, e); err != nil {
		return err
	}
	// A cached maintainer may hold a per-transaction pipelining overlay whose
	// write log no longer describes the (now empty) index subspace; drop it so
	// the next update starts from the cleared state.
	delete(s.maintainers, name)
	if err := s.tr.Clear(s.stateKey(name)); err != nil {
		return err
	}
	delete(s.indexStates, name) // cleared state = readable default
	if err := s.tr.Clear(s.space.Pack(tuple.Tuple{progressSub, name})); err != nil {
		return err
	}
	return s.tr.BumpMetadataVersion()
}

// maintainer returns (cached) the maintainer for an index.
func (s *Store) maintainer(ix *metadata.Index) (index.Maintainer, error) {
	if m, ok := s.maintainers[ix.Name]; ok {
		return m, nil
	}
	m, err := index.NewMaintainer(ix)
	if err != nil {
		return nil, err
	}
	s.maintainers[ix.Name] = m
	return m, nil
}

// indexContext assembles the maintainer context for an index.
func (s *Store) indexContext(ix *metadata.Index) *index.Context {
	return &index.Context{
		Tr:       s.tr,
		Index:    ix,
		Space:    s.indexSpace(ix.Name),
		MetaData: s.md,
		NextUserVersion: func() uint16 {
			v := s.userVersion
			s.userVersion++
			return v
		},
	}
}

// DeleteStore removes every key of a record store — records, indexes,
// header and operational state. Tenant removal is one range clear (§3).
func DeleteStore(tr *fdb.Transaction, space subspace.Subspace) error {
	b, e := space.Range()
	if err := tr.ClearRange(b, e); err != nil {
		return err
	}
	return tr.BumpMetadataVersion()
}
