package core

import (
	"bytes"
	"maps"
	"sync"

	"recordlayer/internal/metadata"
)

// storeStateCacheCap bounds the entries a StoreStateCache holds; one entry is
// a store header plus the store's non-readable index states, so the cap
// keeps the cache to a few megabytes however many tenants a server opens.
const storeStateCacheCap = 10_000

// StoreStateCache holds the store state Open reads — each store's header and
// index states — across transactions, so a warm open issues no read (the Java
// Record Layer's meta-data-version store-state cache). Entries are tagged
// with the value of FoundationDB's metadata-version key (fdb.MetadataVersionKey)
// they were read at. Every header or index-state write bumps that key, so an
// entry serves exactly the transactions that see the same metadata version,
// for which the cached state is what a read would return. A bump anywhere
// invalidates every entry: the key is global. One cache is safe for
// concurrent use by any number of transactions.
type StoreStateCache struct {
	mu sync.Mutex
	// version is the newest metadata version seen; entries were read at it.
	version []byte
	entries map[string]storeState
	stats   StoreStateCacheStats
}

// storeState is one store's cached state.
type storeState struct {
	header Header
	// states holds only the indexes whose state is not the readable
	// default; nil when every index is readable.
	states map[string]metadata.IndexState
}

// StoreStateCacheStats reports a StoreStateCache's counters.
type StoreStateCacheStats struct {
	// Hits counts opens served from the cache with no read.
	Hits int64
	// Misses counts opens that read the store state.
	Misses int64
	// Invalidations counts entries dropped because the metadata version
	// moved past the one they were read at.
	Invalidations int64
	// Size is the number of entries currently held.
	Size int
}

// NewStoreStateCache creates an empty cache.
func NewStoreStateCache() *StoreStateCache {
	return &StoreStateCache{entries: make(map[string]storeState)}
}

// Stats returns the cache's counters.
func (c *StoreStateCache) Stats() StoreStateCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Size = len(c.entries)
	return st
}

// get returns the state of the store whose subspace prefix is space, for a
// transaction that read metadata version mv.
func (c *StoreStateCache) get(mv, space []byte) (storeState, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advance(mv)
	if st, ok := c.entries[string(space)]; ok && bytes.Equal(mv, c.version) {
		c.stats.Hits++
		return st, true
	}
	c.stats.Misses++
	return storeState{}, false
}

// put records the state of the store at space as read by a transaction at
// metadata version mv. A transaction older than the cache's version cannot
// fill it: its state may already be superseded.
func (c *StoreStateCache) put(mv, space []byte, st storeState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advance(mv)
	if !bytes.Equal(mv, c.version) {
		return
	}
	if _, ok := c.entries[string(space)]; !ok && len(c.entries) >= storeStateCacheCap {
		for k := range c.entries { // evict an arbitrary entry
			delete(c.entries, k)
			break
		}
	}
	st.states = maps.Clone(st.states)
	c.entries[string(space)] = st
}

// advance moves the cache to metadata version mv when mv is newer, dropping
// every entry read at the older version. Versionstamps are big-endian, so
// byte order is version order. Caller holds c.mu.
func (c *StoreStateCache) advance(mv []byte) {
	if bytes.Compare(mv, c.version) <= 0 {
		return
	}
	if len(c.entries) > 0 {
		c.stats.Invalidations += int64(len(c.entries))
		c.entries = make(map[string]storeState)
	}
	c.version = mv
}
