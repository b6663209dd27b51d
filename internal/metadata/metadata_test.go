package metadata

import (
	"context"
	"strings"
	"testing"

	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/subspace"
)

func userDescriptor() *message.Descriptor {
	return message.MustDescriptor("User",
		message.Field("id", 1, message.TypeInt64),
		message.Field("name", 2, message.TypeString),
		message.Field("score", 3, message.TypeInt64),
		message.RepeatedField("tags", 4, message.TypeString),
	)
}

func orderDescriptor() *message.Descriptor {
	return message.MustDescriptor("Order",
		message.Field("id", 1, message.TypeInt64),
		message.Field("name", 2, message.TypeString),
		message.Field("total", 3, message.TypeInt64),
	)
}

func baseSchema(t testing.TB) *MetaData {
	t.Helper()
	return NewBuilder(1).
		AddRecordType(userDescriptor(), keyexpr.Field("id")).
		AddRecordType(orderDescriptor(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		AddIndex(&Index{Name: "user_by_name", Type: IndexValue, Expression: keyexpr.Field("name")}, "User").
		AddIndex(&Index{Name: "by_name_all", Type: IndexValue, Expression: keyexpr.Field("name")}).
		AddIndex(&Index{Name: "score_sum", Type: IndexSum,
			Expression: keyexpr.Ungrouped(keyexpr.Field("score"))}, "User").
		MustBuild()
}

func TestBuilderBasics(t *testing.T) {
	md := baseSchema(t)
	if md.Version != 1 {
		t.Fatalf("version: %d", md.Version)
	}
	if _, ok := md.RecordType("User"); !ok {
		t.Fatal("User missing")
	}
	if got := len(md.Indexes()); got != 3 {
		t.Fatalf("indexes: %d", got)
	}
	if got := len(md.IndexesFor("Order")); got != 1 {
		t.Fatalf("Order indexes: %d (universal only)", got)
	}
	if got := len(md.IndexesFor("User")); got != 3 {
		t.Fatalf("User indexes: %d", got)
	}
}

func TestBuilderValidation(t *testing.T) {
	// Index on a missing field.
	_, err := NewBuilder(1).
		AddRecordType(userDescriptor(), keyexpr.Field("id")).
		AddIndex(&Index{Name: "bad", Type: IndexValue, Expression: keyexpr.Field("nope")}, "User").
		Build()
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("missing field accepted: %v", err)
	}

	// Universal index must validate against every type; Order lacks "score".
	_, err = NewBuilder(1).
		AddRecordType(userDescriptor(), keyexpr.Field("id")).
		AddRecordType(orderDescriptor(), keyexpr.Field("id")).
		AddIndex(&Index{Name: "bad", Type: IndexValue, Expression: keyexpr.Field("score")}).
		Build()
	if err == nil {
		t.Fatal("universal index over missing field accepted")
	}

	// Repeated field without fan type.
	_, err = NewBuilder(1).
		AddRecordType(userDescriptor(), keyexpr.Field("id")).
		AddIndex(&Index{Name: "bad", Type: IndexValue, Expression: keyexpr.Field("tags")}, "User").
		Build()
	if err == nil {
		t.Fatal("scalar expression over repeated field accepted")
	}

	// Unique non-value index.
	_, err = NewBuilder(1).
		AddRecordType(userDescriptor(), keyexpr.Field("id")).
		AddIndex(&Index{Name: "bad", Type: IndexSum, Unique: true,
			Expression: keyexpr.Ungrouped(keyexpr.Field("score"))}, "User").
		Build()
	if err == nil {
		t.Fatal("unique sum index accepted")
	}

	// No record types at all.
	if _, err := NewBuilder(1).Build(); err == nil {
		t.Fatal("empty schema accepted")
	}
}

func TestIndexFilters(t *testing.T) {
	RegisterIndexFilter("test_high_scores", func(m *message.Message) bool {
		v, ok := m.Get("score")
		return ok && v.(int64) >= 100
	})
	md := NewBuilder(1).
		AddRecordType(userDescriptor(), keyexpr.Field("id")).
		AddIndex(&Index{Name: "high", Type: IndexValue, Expression: keyexpr.Field("score"),
			FilterName: "test_high_scores"}, "User").
		MustBuild()
	ix, _ := md.Index("high")
	f, err := ix.Filter()
	if err != nil {
		t.Fatal(err)
	}
	low := message.New(userDescriptor()).MustSet("id", int64(1)).MustSet("score", int64(5))
	high := message.New(userDescriptor()).MustSet("id", int64(2)).MustSet("score", int64(500))
	if f(low) || !f(high) {
		t.Fatal("filter misbehaves")
	}

	_, err = NewBuilder(1).
		AddRecordType(userDescriptor(), keyexpr.Field("id")).
		AddIndex(&Index{Name: "bad", Type: IndexValue, Expression: keyexpr.Field("score"),
			FilterName: "never_registered"}, "User").
		Build()
	if err == nil {
		t.Fatal("unregistered filter accepted")
	}
}

func TestEvolutionLegal(t *testing.T) {
	v1 := baseSchema(t)
	// v2: add a field, a type, and an index; remove an index properly.
	userV2 := message.MustDescriptor("User",
		message.Field("id", 1, message.TypeInt64),
		message.Field("name", 2, message.TypeString),
		message.Field("score", 3, message.TypeInt64),
		message.RepeatedField("tags", 4, message.TypeString),
		message.Field("email", 5, message.TypeString), // added
	)
	v2 := NewBuilder(2).
		AddRecordType(userV2, keyexpr.Field("id")).
		AddRecordType(orderDescriptor(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		AddRecordType(message.MustDescriptor("Audit",
			message.Field("id", 1, message.TypeInt64)), keyexpr.Field("id")).
		AddIndex(&Index{Name: "user_by_name", Type: IndexValue, Expression: keyexpr.Field("name"), AddedVersion: 1}, "User").
		AddIndex(&Index{Name: "by_name_all", Type: IndexValue, Expression: keyexpr.Field("name"), AddedVersion: 1}, "User", "Order").
		AddIndex(&Index{Name: "user_by_email", Type: IndexValue, Expression: keyexpr.Field("email"), AddedVersion: 2}, "User").
		RemoveIndex("by_name_all"). // oops: remove after adding, recorded as former
		MustBuild()
	// Re-add score_sum so we only test the removal of by_name_all.
	_ = v2
	v2b := NewBuilder(2).
		AddRecordType(userV2, keyexpr.Field("id")).
		AddRecordType(orderDescriptor(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		AddIndex(&Index{Name: "user_by_name", Type: IndexValue, Expression: keyexpr.Field("name"), AddedVersion: 1}, "User").
		AddIndex(&Index{Name: "by_name_all", Type: IndexValue, Expression: keyexpr.Field("name"), AddedVersion: 1}).
		AddIndex(&Index{Name: "score_sum", Type: IndexSum,
			Expression: keyexpr.Ungrouped(keyexpr.Field("score")), AddedVersion: 1}, "User").
		AddIndex(&Index{Name: "user_by_email", Type: IndexValue, Expression: keyexpr.Field("email"), AddedVersion: 2}, "User").
		MustBuild()
	if err := ValidateEvolution(v1, v2b); err != nil {
		t.Fatalf("legal evolution rejected: %v", err)
	}
}

func TestEvolutionIllegal(t *testing.T) {
	v1 := baseSchema(t)

	mk := func(build func(*Builder) *Builder) *MetaData {
		b := NewBuilder(2)
		return build(b).MustBuild()
	}

	// Version must increase.
	same := baseSchema(t)
	if err := ValidateEvolution(v1, same); err == nil {
		t.Fatal("same version accepted")
	}

	// Removing a record type.
	md := mk(func(b *Builder) *Builder {
		return b.AddRecordType(userDescriptor(), keyexpr.Field("id"))
	})
	if err := ValidateEvolution(v1, md); err == nil {
		t.Fatal("removed record type accepted")
	}

	// Changing a field type.
	userBad := message.MustDescriptor("User",
		message.Field("id", 1, message.TypeInt64),
		message.Field("name", 2, message.TypeInt64), // was string
		message.Field("score", 3, message.TypeInt64),
		message.RepeatedField("tags", 4, message.TypeString),
	)
	md = mk(func(b *Builder) *Builder {
		return b.AddRecordType(userBad, keyexpr.Field("id")).
			AddRecordType(orderDescriptor(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id")))
	})
	if err := ValidateEvolution(v1, md); err == nil {
		t.Fatal("field type change accepted")
	}

	// Changing a primary key.
	md = mk(func(b *Builder) *Builder {
		return b.AddRecordType(userDescriptor(), keyexpr.Field("name")).
			AddRecordType(orderDescriptor(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id")))
	})
	if err := ValidateEvolution(v1, md); err == nil {
		t.Fatal("primary key change accepted")
	}

	// Dropping an index silently (no former-index record).
	md = mk(func(b *Builder) *Builder {
		return b.AddRecordType(userDescriptor(), keyexpr.Field("id")).
			AddRecordType(orderDescriptor(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id")))
	})
	if err := ValidateEvolution(v1, md); err == nil {
		t.Fatal("silent index removal accepted")
	}
}

func TestMetaDataSerializationRoundTrip(t *testing.T) {
	md := baseSchema(t)
	blob, err := md.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != md.Version {
		t.Fatalf("version: %d", got.Version)
	}
	rt, ok := got.RecordType("User")
	if !ok || rt.PrimaryKey.String() != `field("id")` {
		t.Fatalf("User after round trip: %+v", rt)
	}
	ix, ok := got.Index("score_sum")
	if !ok || ix.Type != IndexSum {
		t.Fatalf("score_sum after round trip: %+v", ix)
	}
	// The registry must still decode records.
	rec := message.New(userDescriptor()).MustSet("id", int64(1)).MustSet("name", "n")
	data, _ := rec.Marshal()
	d, _ := got.Registry().Lookup("User")
	if _, err := message.Unmarshal(d, data); err != nil {
		t.Fatal(err)
	}
}

func TestMetaDataStore(t *testing.T) {
	db := fdb.Open(nil)
	ms := NewStore(subspace.FromBytes([]byte{0xFD}))
	v1 := baseSchema(t)

	_, err := db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		return nil, ms.Save(tr, v1)
	})
	if err != nil {
		t.Fatal(err)
	}

	_, err = db.ReadTransact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		got, err := ms.LoadCurrent(tr)
		if err != nil {
			return nil, err
		}
		if got.Version != 1 {
			t.Errorf("loaded version %d", got.Version)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Saving the same version again must fail; a lower version too.
	_, err = db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		return nil, ms.Save(tr, v1)
	})
	if err == nil {
		t.Fatal("re-saving version 1 accepted")
	}

	// A valid v2 saves and both versions stay loadable.
	userV2 := message.MustDescriptor("User",
		message.Field("id", 1, message.TypeInt64),
		message.Field("name", 2, message.TypeString),
		message.Field("score", 3, message.TypeInt64),
		message.RepeatedField("tags", 4, message.TypeString),
		message.Field("email", 5, message.TypeString),
	)
	v2 := NewBuilder(2).
		AddRecordType(userV2, keyexpr.Field("id")).
		AddRecordType(orderDescriptor(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		AddIndex(&Index{Name: "user_by_name", Type: IndexValue, Expression: keyexpr.Field("name"), AddedVersion: 1}, "User").
		AddIndex(&Index{Name: "by_name_all", Type: IndexValue, Expression: keyexpr.Field("name"), AddedVersion: 1}).
		AddIndex(&Index{Name: "score_sum", Type: IndexSum,
			Expression: keyexpr.Ungrouped(keyexpr.Field("score")), AddedVersion: 1}, "User").
		MustBuild()
	_, err = db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		return nil, ms.Save(tr, v2)
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.ReadTransact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		if v, _ := ms.CurrentVersion(tr); v != 2 {
			t.Errorf("current version %d", v)
		}
		if _, err := ms.Load(tr, 1); err != nil {
			t.Errorf("version 1 unloadable: %v", err)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// An illegal evolution is rejected at save time.
	bad := NewBuilder(3).
		AddRecordType(userDescriptor(), keyexpr.Field("name")). // PK change
		AddRecordType(orderDescriptor(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		MustBuild()
	_, err = db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		return nil, ms.Save(tr, bad)
	})
	if err == nil {
		t.Fatal("illegal evolution saved")
	}
}

func TestCache(t *testing.T) {
	c := NewCache(2)
	v1 := baseSchema(t)
	c.Put(v1)
	if md, ok := c.Get(1); !ok || md.Version != 1 {
		t.Fatal("cache miss for v1")
	}
	if _, ok := c.Get(9); ok {
		t.Fatal("phantom hit")
	}
	cur, ok := c.Current()
	if !ok || cur.Version != 1 {
		t.Fatal("current wrong")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats: %d/%d", hits, misses)
	}
}

func TestRecordTypeKey(t *testing.T) {
	md := NewBuilder(1).
		AddRecordType(userDescriptor(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		SetRecordTypeKey("User", int64(1)).
		MustBuild()
	rt, _ := md.RecordType("User")
	if rt.TypeKey() != int64(1) {
		t.Fatalf("type key: %v", rt.TypeKey())
	}
	got, ok := md.RecordTypeForKey(int64(1))
	if !ok || got.Name != "User" {
		t.Fatal("reverse type key lookup failed")
	}
}
