package core

import (
	"recordlayer/internal/fdb"
	"recordlayer/internal/metadata"
)

// This file is the package's only home for raw transaction reads: every
// fdb.Get/GetRange in internal/core must flow through one of these helpers
// (or the issueLoadRecord/awaitLoadRecord pair in records.go) so the tenant's
// Meter sees every key and byte the store pulls. The meteredtxn analyzer
// enforces that; the lint:allow directives below are the audited exceptions
// it points at.

// meteredGet reads one key and accounts the fetched pair to the tenant meter.
func (s *Store) meteredGet(key []byte) ([]byte, error) {
	raw, err := s.tr.Get(key) //lint:allow meteredtxn audited helper: the package's raw point read, metered below
	if err != nil || raw == nil {
		return raw, err
	}
	s.meter.RecordRead(1, len(key)+len(raw))
	return raw, nil
}

// meteredGetRange reads a key range and accounts the fetched pairs.
func (s *Store) meteredGetRange(begin, end []byte, o fdb.RangeOptions) ([]fdb.KeyValue, bool, error) {
	kvs, more, err := s.tr.GetRange(begin, end, o) //lint:allow meteredtxn audited helper: the package's raw range read, metered below
	if err != nil {
		return nil, false, err
	}
	s.meterReadKVs(kvs)
	return kvs, more, nil
}

// meteredSnapshotRange is meteredGetRange at snapshot isolation (no read
// conflict registered).
func (s *Store) meteredSnapshotRange(begin, end []byte, o fdb.RangeOptions) ([]fdb.KeyValue, bool, error) {
	kvs, more, err := s.tr.Snapshot().GetRange(begin, end, o) //lint:allow meteredtxn audited helper: the package's raw snapshot range read, metered below
	if err != nil {
		return nil, false, err
	}
	s.meterReadKVs(kvs)
	return kvs, more, nil
}

// readStoreState reads the store header and the whole index-state subspace
// in one round trip — both reads are issued before either is awaited — and
// accounts the fetched pairs. It returns the raw header (nil when the store
// does not exist) and the decoded non-readable index states.
func (s *Store) readStoreState() ([]byte, map[string]metadata.IndexState, error) {
	key := s.headerKey()
	begin, end := s.stateRange()
	header := s.tr.GetAsync(key)                                 //lint:allow meteredtxn audited helper: the header read, metered below
	states := s.tr.GetRangeAsync(begin, end, fdb.RangeOptions{}) //lint:allow meteredtxn audited helper: the index-state read, metered below
	raw, herr := header.Get()
	kvs, _, err := states.Get()
	if herr != nil {
		return nil, nil, herr
	}
	if err != nil {
		return nil, nil, err
	}
	if raw != nil {
		s.meter.RecordRead(1, len(key)+len(raw))
	}
	s.meterReadKVs(kvs)
	st, err := s.decodeIndexStates(kvs)
	return raw, st, err
}
