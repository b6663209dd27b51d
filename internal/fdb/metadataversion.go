package fdb

// MetadataVersionKey is FoundationDB's \xff/metadataVersion system key. A
// layer that caches its own metadata across transactions bumps it whenever
// that metadata changes and compares it at the start of every transaction:
// an unchanged value proves the cache is still current. The cluster returns
// the key with every GRV reply, so the check costs no extra round trip.
var MetadataVersionKey = []byte("\xff/metadataVersion")

// MetadataVersion returns the value of MetadataVersionKey at the
// transaction's read version, or nil if it was never bumped. The value rides
// on the GRV reply: the call waits out the GRV round trip but issues no read,
// counts no storage read and adds no read conflict. A transaction whose read
// version came from SetReadVersion has no GRV reply, so the key costs one
// ordinary read window. After BumpMetadataVersion the key fails with
// accessed_unreadable, as on a real cluster: its new value is the commit
// versionstamp, which is not known until commit.
func (t *Transaction) MetadataVersion() ([]byte, error) {
	t.mu.Lock()
	if err := t.checkUsable(); err != nil {
		t.mu.Unlock()
		return nil, err
	}
	if t.mvBumped {
		t.mu.Unlock()
		return nil, errCode(CodeAccessedUnreadable, "metadata version read after it was bumped")
	}
	if err := t.ensureSnapshot(); err != nil {
		t.mu.Unlock()
		return nil, err
	}
	val, _ := treapGet(t.snapRoot, MetadataVersionKey)
	val = cloneBytes(val)
	ready := t.grvReady
	if !t.grvReply {
		t.countRead(MetadataVersionKey, val)
		ready = t.issueLocked(len(MetadataVersionKey) + len(val))
	}
	t.unlockAndCharge()
	t.awaitRead(ready)
	return val, nil
}

// BumpMetadataVersion sets MetadataVersionKey to this transaction's commit
// versionstamp, so every later transaction that reads the key sees a value
// no cache filled before the commit can hold.
func (t *Transaction) BumpMetadataVersion() error {
	// A 10-byte versionstamp placeholder followed by its little-endian
	// offset (0), the SetVersionstampedValue parameter layout.
	if err := t.Atomic(MutationSetVersionstampedValue, MetadataVersionKey, make([]byte, 14)); err != nil {
		return err
	}
	t.mu.Lock()
	t.mvBumped = true
	t.mu.Unlock()
	return nil
}
