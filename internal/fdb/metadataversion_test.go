package fdb

import (
	"bytes"
	"testing"
	"time"
)

// bump commits one transaction that bumps the metadata version, returning
// its versionstamp.
func bump(t *testing.T, db *Database) []byte {
	t.Helper()
	tr := db.CreateTransaction()
	if err := tr.BumpMetadataVersion(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	vs, err := tr.Versionstamp()
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

// TestMetadataVersionRidesTheGRV: with a GRV, reading the metadata version
// waits out the GRV and nothing more — no read window, no storage read, no
// read conflict — and returns the last bump's commit versionstamp.
func TestMetadataVersionRidesTheGRV(t *testing.T) {
	const window = time.Millisecond
	db := Open(&Options{Latency: LatencyModel{PerRead: window, PerGRV: window, Virtual: true}})
	tr := db.CreateTransaction()
	if v, err := tr.MetadataVersion(); err != nil || v != nil {
		t.Fatalf("never-bumped metadata version = %x, %v; want nil", v, err)
	}
	vs := bump(t, db)
	tr = db.CreateTransaction()
	v, err := tr.MetadataVersion()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, vs) {
		t.Fatalf("metadata version %x, want the bump's versionstamp %x", v, vs)
	}
	st := tr.Stats()
	if st.SimWaitNanos != int64(window) || st.KeysRead != 0 {
		t.Fatalf("waited %v and read %d keys, want the GRV window alone and no read",
			time.Duration(st.SimWaitNanos), st.KeysRead)
	}
	// No read conflict: a concurrent bump does not abort this writer.
	if err := tr.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	bump(t, db)
	if err := tr.Commit(); err != nil {
		t.Fatalf("commit after a concurrent bump: %v, want success", err)
	}
}

// TestMetadataVersionAfterSetReadVersion: a cached read version has no GRV
// reply, so the metadata version costs one ordinary read.
func TestMetadataVersionAfterSetReadVersion(t *testing.T) {
	const window = time.Millisecond
	db := Open(&Options{Latency: LatencyModel{PerRead: window, PerGRV: window, Virtual: true}})
	vs := bump(t, db)
	tr := db.CreateTransaction()
	tr.SetReadVersion(db.ReadVersion())
	v, err := tr.MetadataVersion()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, vs) {
		t.Fatalf("metadata version %x, want %x", v, vs)
	}
	if st := tr.Stats(); st.SimWaitNanos != int64(window) || st.KeysRead != 1 {
		t.Fatalf("waited %v and read %d keys, want one read window and one key",
			time.Duration(st.SimWaitNanos), st.KeysRead)
	}
}

// TestMetadataVersionUnreadableAfterBump: the transaction that bumps cannot
// read the key back — its value is the commit versionstamp, unknown until
// commit — and the key stays out of the user keyspace's Size.
func TestMetadataVersionUnreadableAfterBump(t *testing.T) {
	db := Open(nil)
	tr := db.CreateTransaction()
	if err := tr.BumpMetadataVersion(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.MetadataVersion(); !IsAccessedUnreadable(err) {
		t.Fatalf("metadata version after bump: err = %v, want accessed_unreadable", err)
	}
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := db.Size(); n != 0 {
		t.Fatalf("Size = %d after a bump alone, want 0 (system keys are not counted)", n)
	}
}
