package plan

import (
	"context"
	"strings"
	"testing"
	"time"

	"recordlayer/internal/core"
	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/query"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// coveringSchema: the same Person data as planSchema, plus covering-capable
// indexes. by_city is deliberately defined before cov_city_name_age so the
// tie-break (not definition order) must pick the covering index.
func coveringSchema() *metadata.MetaData {
	return metadata.NewBuilder(1).
		AddRecordType(personDesc(), keyexpr.Then(keyexpr.RecordType(), keyexpr.Field("id"))).
		AddIndex(&metadata.Index{Name: "by_city", Type: metadata.IndexValue,
			Expression: keyexpr.Field("city")}, "Person").
		AddIndex(&metadata.Index{Name: "cov_city_name_age", Type: metadata.IndexValue,
			Expression: keyexpr.KeyWithValue(keyexpr.Then(
				keyexpr.Field("city"), keyexpr.Field("name"), keyexpr.Field("age")), 1)}, "Person").
		AddIndex(&metadata.Index{Name: "cov_tags", Type: metadata.IndexValue,
			Expression: keyexpr.KeyWithValue(keyexpr.Then(
				keyexpr.FieldFan("tags", keyexpr.FanOut), keyexpr.Field("name")), 1)}, "Person").
		MustBuild()
}

func newCoveringEnv(t testing.TB) *planEnv {
	t.Helper()
	env := &planEnv{db: fdb.Open(nil), md: coveringSchema(), sp: subspace.FromTuple(tuple.Tuple{"cov"})}
	people := []struct {
		id   int64
		name string
		age  int64
		city string
		tags []string
	}{
		{1, "alice", 34, "paris", []string{"eng", "chess"}},
		{2, "bob", 28, "paris", []string{"art"}},
		{3, "carol", 41, "tokyo", []string{"eng"}},
		{4, "dave", 23, "tokyo", nil},
		{5, "erin", 34, "paris", []string{"chess", "go"}},
		{6, "frank", 52, "berlin", []string{"art", "eng"}},
	}
	_, err := env.db.Transact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := core.Open(tr, env.md, env.sp, core.OpenOptions{CreateIfMissing: true})
		if err != nil {
			return nil, err
		}
		for _, p := range people {
			m := message.New(personDesc()).
				MustSet("id", p.id).MustSet("name", p.name).
				MustSet("age", p.age).MustSet("city", p.city)
			for _, tag := range p.tags {
				m.MustAdd("tags", tag)
			}
			if _, err := s.SaveRecord(m); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// collectRecords executes a plan and returns the full results.
func (env *planEnv) collectRecords(t testing.TB, p Plan, opts ExecuteOptions) ([]*core.StoredRecord, cursor.NoNextReason, []byte) {
	t.Helper()
	var recs []*core.StoredRecord
	var reason cursor.NoNextReason
	var cont []byte
	_, err := env.db.ReadTransact(context.Background(), func(_ context.Context, tr *fdb.Transaction) (interface{}, error) {
		s, err := core.Open(tr, env.md, env.sp, core.OpenOptions{})
		if err != nil {
			return nil, err
		}
		c, err := p.Execute(s, opts)
		if err != nil {
			return nil, err
		}
		rs, r, cc, err := cursor.Collect(c)
		if err != nil {
			return nil, err
		}
		recs, reason, cont = rs, r, cc
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, reason, cont
}

// TestCoveringPlanChosenAndCorrect: with a projection the planner promotes
// the covering-capable index (despite a plain index on the same column
// defined first), and the synthesized records agree field-for-field with the
// fetching plan on the same data.
func TestCoveringPlanChosenAndCorrect(t *testing.T) {
	env := newCoveringEnv(t)
	planner := New(env.md, Config{})

	base := query.RecordQuery{RecordTypes: []string{"Person"},
		Filter: query.Field("city").Equals("paris")}

	fetchPlan, err := planner.Plan(base)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(fetchPlan.String(), "Covering") {
		t.Fatalf("no projection must not cover: %s", fetchPlan)
	}

	covPlan, err := planner.Plan(base.Select("name", "city", "id"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(covPlan.String(), "Covering(Index(cov_city_name_age") {
		t.Fatalf("plan = %s, want Covering(Index(cov_city_name_age ...))", covPlan)
	}

	covRecs, covReason, _ := env.collectRecords(t, covPlan, ExecuteOptions{})
	fetchRecs, _, _ := env.collectRecords(t, fetchPlan, ExecuteOptions{})
	if covReason != cursor.SourceExhausted || len(covRecs) != len(fetchRecs) || len(covRecs) != 3 {
		t.Fatalf("covering %d records (%v), fetching %d", len(covRecs), covReason, len(fetchRecs))
	}
	for i, cr := range covRecs {
		fr := fetchRecs[i]
		if tuple.Compare(cr.PrimaryKey, fr.PrimaryKey) != 0 {
			t.Fatalf("record %d: pk %v vs %v", i, cr.PrimaryKey, fr.PrimaryKey)
		}
		for _, f := range []string{"name", "city", "id"} {
			cv, _ := cr.Message.Get(f)
			fv, _ := fr.Message.Get(f)
			if cv != fv {
				t.Fatalf("record %d field %s: covering %v, fetching %v", i, f, cv, fv)
			}
		}
		// The Query.Select contract: partial records, no version, no size.
		if cr.HasVersion || cr.Size != 0 || cr.SplitChunks != 0 {
			t.Fatalf("record %d: synthesized record claims stored state: %+v", i, cr)
		}
		if cr.Message.Has("age") {
			t.Fatalf("record %d: unprojected field reconstructed; projection should be minimal", i)
		}
	}
}

// TestCoveringResidualFilter: residual conjuncts evaluate against the
// synthesized records, so their fields are reconstructed too.
func TestCoveringResidualFilter(t *testing.T) {
	env := newCoveringEnv(t)
	planner := New(env.md, Config{})
	q := query.RecordQuery{RecordTypes: []string{"Person"},
		Filter: query.And(
			query.Field("city").Equals("paris"),
			query.Field("age").GreaterThan(30),
		)}.Select("name")
	p, err := planner.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.String(), "Covering(Index(cov_city_name_age") ||
		!strings.HasPrefix(p.String(), "Filter(") {
		t.Fatalf("plan = %s, want Filter(... | Covering(Index(cov_city_name_age ...)))", p)
	}
	ids, _, _ := env.run(t, p, ExecuteOptions{})
	if !idsEqual(ids, 1, 5) { // alice (34) and erin (34); bob (28) filtered out
		t.Fatalf("ids = %v, want [1 5]", ids)
	}
}

// TestCoveringRefusals: fan-out indexes, unreconstructible fields, and
// multi-type queries all fall back to fetching plans.
func TestCoveringRefusals(t *testing.T) {
	env := newCoveringEnv(t)
	planner := New(env.md, Config{})

	// Fan-out: one record yields several entries; covering would fabricate
	// duplicates, so it must be refused even though name rides the value.
	q := query.RecordQuery{RecordTypes: []string{"Person"},
		Filter: query.Field("tags").OneOfThem().Equals("eng")}.Select("name")
	p, err := planner.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(p.String(), "Covering") {
		t.Fatalf("fan-out index produced a covering plan: %s", p)
	}
	if !strings.Contains(p.String(), "Distinct(") {
		t.Fatalf("fan-out scan lost its distinct: %s", p)
	}
	ids, _, _ := env.run(t, p, ExecuteOptions{})
	if !idsEqual(ids, 1, 3, 6) {
		t.Fatalf("ids = %v, want [1 3 6]", ids)
	}

	// A field no index can reconstruct (repeated, and only present in the
	// refused fan-out index).
	q2 := query.RecordQuery{RecordTypes: []string{"Person"},
		Filter: query.Field("city").Equals("paris")}.Select("tags")
	p2, err := planner.Plan(q2)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(p2.String(), "Covering") {
		t.Fatalf("unreconstructible projection produced a covering plan: %s", p2)
	}

	// A query over all types cannot prove every entry's type.
	q3 := query.RecordQuery{Filter: query.Field("city").Equals("paris")}.Select("city")
	p3, err := planner.Plan(q3)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(p3.String(), "Covering") {
		t.Fatalf("untyped query produced a covering plan: %s", p3)
	}
}

// TestCoveringContinuationResume: a covering scan halted by a scan limit
// resumes from its continuation with no loss or duplication.
func TestCoveringContinuationResume(t *testing.T) {
	env := newCoveringEnv(t)
	planner := New(env.md, Config{})
	q := query.RecordQuery{RecordTypes: []string{"Person"},
		Filter: query.Field("city").Equals("paris")}.Select("name", "id")
	p, err := planner.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(p.String(), "Covering(") {
		t.Fatalf("plan = %s", p)
	}
	lim := cursor.NewLimiter(2, 0, time.Time{}, nil)
	first, reason, cont := env.run(t, p, ExecuteOptions{Limiter: lim})
	if reason != cursor.ScanLimitReached || cont == nil {
		t.Fatalf("first page: %v records, %v, cont %v", first, reason, cont)
	}
	rest, reason2, _ := env.run(t, p, ExecuteOptions{Continuation: cont})
	if reason2 != cursor.SourceExhausted {
		t.Fatalf("resume reason %v", reason2)
	}
	all := append(append([]int64(nil), first...), rest...)
	if !idsEqual(all, 1, 2, 5) { // paris entries in (city, name, pk) order
		t.Fatalf("paged ids = %v, want [1 2 5]", all)
	}
}

// TestCoveringReverseSort: a sort the index satisfies executes as a reverse
// covering scan.
func TestCoveringReverseSort(t *testing.T) {
	env := newCoveringEnv(t)
	planner := New(env.md, Config{})
	q := query.RecordQuery{RecordTypes: []string{"Person"},
		Sort: keyexpr.Field("city"), SortReverse: true}.Select("city", "id")
	p, err := planner.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	if !strings.HasPrefix(s, "Covering(") || !strings.Contains(s, "reverse") {
		t.Fatalf("plan = %s, want reverse covering scan", s)
	}
	recs, _, _ := env.collectRecords(t, p, ExecuteOptions{})
	if len(recs) != 6 {
		t.Fatalf("%d records", len(recs))
	}
	var cities []string
	for _, r := range recs {
		c, _ := r.Message.Get("city")
		cities = append(cities, c.(string))
	}
	for i := 1; i < len(cities); i++ {
		if cities[i] > cities[i-1] {
			t.Fatalf("cities not descending: %v", cities)
		}
	}
}

// TestCoveringIndexOnlyFallback: with a projection but no usable filter, an
// index-only scan replaces the full record scan.
func TestCoveringIndexOnlyFallback(t *testing.T) {
	env := newCoveringEnv(t)
	planner := New(env.md, Config{})
	q := query.RecordQuery{RecordTypes: []string{"Person"}}.Select("city", "id")
	p, err := planner.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(p.String(), "Covering(Index(") {
		t.Fatalf("plan = %s, want an index-only covering scan over a full scan", p)
	}
	ids, _, _ := env.run(t, p, ExecuteOptions{})
	if len(ids) != 6 {
		t.Fatalf("ids = %v, want all 6 people", ids)
	}
}
