package fdb

import (
	"context"
	"testing"
	"time"
)

// faultyDB opens a database with an injector and no-op backoff sleeps.
func faultyDB(cfg FaultConfig) (*Database, *FaultInjector) {
	inj := NewFaultInjector(cfg)
	db := Open(&Options{Faults: inj, Sleep: func(time.Duration) {}})
	return db, inj
}

func TestFaultErrorClassification(t *testing.T) {
	cases := []struct {
		code           int
		retryable      bool
		maybeCommitted bool
	}{
		{CodeNotCommitted, true, false},
		{CodeTransactionTooOld, true, false},
		{CodeFutureVersion, true, false},
		{CodeTransactionTimedOut, true, false},
		{CodeCommitUnknownResult, false, true}, // ambiguous: must NOT blind-retry
		{CodeTransactionTooLarge, false, false},
		{CodeTransactionCanceled, false, false},
	}
	for _, c := range cases {
		err := errCode(c.code, "test")
		if got := IsRetryable(err); got != c.retryable {
			t.Errorf("code %d: IsRetryable = %v, want %v", c.code, got, c.retryable)
		}
		if got := IsMaybeCommitted(err); got != c.maybeCommitted {
			t.Errorf("code %d: IsMaybeCommitted = %v, want %v", c.code, got, c.maybeCommitted)
		}
	}
	if IsRetryable(nil) || IsMaybeCommitted(nil) {
		t.Error("nil error must classify as neither retryable nor maybe-committed")
	}
}

// TestFaultsOffByDefault: a database with no injector (and one with a zero
// config) never deals a fault.
func TestFaultsOffByDefault(t *testing.T) {
	plain := Open(&Options{Sleep: func(time.Duration) {}})
	zero, inj := faultyDB(FaultConfig{Seed: 1})
	for _, db := range []*Database{plain, zero} {
		for i := 0; i < 50; i++ {
			_, err := db.Transact(context.Background(), func(_ context.Context, tr *Transaction) (interface{}, error) {
				if _, err := tr.Get([]byte{byte(i)}); err != nil {
					return nil, err
				}
				return nil, tr.Set([]byte{byte(i)}, []byte("v"))
			})
			if err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
	}
	if total := inj.Counts().Total(); total != 0 {
		t.Fatalf("zero-config injector dealt %d faults", total)
	}
}

// stormConfig deals every fault kind with enough probability to show up in a
// short run.
func stormConfig(seed int64) FaultConfig {
	return FaultConfig{
		Seed:                seed,
		PCommitNotCommitted: 0.1,
		PCommitUnknown:      0.1,
		PReadTooOld:         0.05,
		PReadFuture:         0.05,
	}
}

// runStorm runs a fixed single-goroutine workload, returning each key's final
// committed value ("" for errors tolerated mid-run).
func runStorm(t *testing.T, db *Database, inj *FaultInjector) ([]string, FaultCounts) {
	t.Helper()
	for i := 0; i < 80; i++ {
		k := []byte{byte(i)}
		v := []byte{byte(i), byte(i >> 1)}
		_, err := db.Transact(context.Background(), func(_ context.Context, tr *Transaction) (interface{}, error) {
			if _, err := tr.Get(k); err != nil {
				return nil, err
			}
			return nil, tr.Set(k, v)
		})
		if err != nil && !IsMaybeCommitted(err) {
			t.Fatalf("write %d failed non-ambiguously: %v", i, err)
		}
	}
	inj.Disable()
	var state []string
	for i := 0; i < 80; i++ {
		v, err := db.ReadTransact(context.Background(), func(_ context.Context, tr *Transaction) (interface{}, error) {
			return tr.Get([]byte{byte(i)})
		})
		if err != nil {
			t.Fatal(err)
		}
		state = append(state, string(v.([]byte)))
	}
	inj.Enable()
	return state, inj.Counts()
}

// TestFaultDeterminism: the same seed against the same operation sequence
// deals the same fault schedule and lands the same database state.
func TestFaultDeterminism(t *testing.T) {
	db1, inj1 := faultyDB(stormConfig(42))
	state1, counts1 := runStorm(t, db1, inj1)
	db2, inj2 := faultyDB(stormConfig(42))
	state2, counts2 := runStorm(t, db2, inj2)

	if counts1 != counts2 {
		t.Errorf("same seed dealt different faults: %+v vs %+v", counts1, counts2)
	}
	if counts1.Total() == 0 {
		t.Error("storm config dealt no faults at all")
	}
	for i := range state1 {
		if state1[i] != state2[i] {
			t.Errorf("key %d diverged: %q vs %q", i, state1[i], state2[i])
		}
	}

	db3, inj3 := faultyDB(stormConfig(43))
	_, counts3 := runStorm(t, db3, inj3)
	if counts1 == counts3 {
		t.Error("different seeds dealt the identical fault schedule (suspicious)")
	}
}

// TestUnknownResultApplied: with PUnknownApplied forced to 1, a
// commit_unknown_result commit is genuinely durable; with
// UnknownNeverApplies, it is genuinely lost. Both report the same ambiguous
// error — that is the point.
func TestUnknownResultApplied(t *testing.T) {
	check := func(cfg FaultConfig, wantApplied bool) {
		t.Helper()
		db, inj := faultyDB(cfg)
		tr := db.CreateTransaction()
		mustSet(t, tr, "k", "v")
		err := tr.Commit()
		if !IsMaybeCommitted(err) {
			t.Fatalf("commit error = %v, want commit_unknown_result", err)
		}
		inj.Disable()
		got, err := db.ReadTransact(context.Background(), func(_ context.Context, tr *Transaction) (interface{}, error) {
			return tr.Get([]byte("k"))
		})
		if err != nil {
			t.Fatal(err)
		}
		applied := got.([]byte) != nil
		if applied != wantApplied {
			t.Fatalf("unknown-result commit applied=%v, want %v", applied, wantApplied)
		}
		counts := inj.Counts()
		if counts.CommitsUnknown != 1 {
			t.Fatalf("CommitsUnknown = %d, want 1", counts.CommitsUnknown)
		}
		wantAppliedCount := int64(0)
		if wantApplied {
			wantAppliedCount = 1
		}
		if counts.UnknownApplied != wantAppliedCount {
			t.Fatalf("UnknownApplied = %d, want %d", counts.UnknownApplied, wantAppliedCount)
		}
	}
	check(FaultConfig{Seed: 7, PCommitUnknown: 1, PUnknownApplied: 1}, true)
	check(FaultConfig{Seed: 7, PCommitUnknown: 1, UnknownNeverApplies: true}, false)
}

// TestReadFaultsRetriedByTransact: injected transaction_too_old and
// future_version read failures are retryable, so Transact absorbs them.
func TestReadFaultsRetriedByTransact(t *testing.T) {
	db, inj := faultyDB(FaultConfig{Seed: 3, PReadTooOld: 0.3, PReadFuture: 0.3})
	for i := 0; i < 40; i++ {
		k := []byte{byte(i)}
		_, err := db.Transact(context.Background(), func(_ context.Context, tr *Transaction) (interface{}, error) {
			if _, err := tr.Get(k); err != nil {
				return nil, err
			}
			return nil, tr.Set(k, []byte("v"))
		})
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	counts := inj.Counts()
	if counts.ReadsTooOld == 0 || counts.ReadsFuture == 0 {
		t.Fatalf("expected both read fault kinds, got %+v", counts)
	}
	if db.Metrics().Snapshot().Retries == 0 {
		t.Error("read faults should have shown up as Transact retries")
	}
}

// TestDisableEnable: Disable pauses injection (dealing nothing), Enable
// resumes it.
func TestDisableEnable(t *testing.T) {
	db, inj := faultyDB(FaultConfig{Seed: 9, PReadTooOld: 1})
	read := func() error {
		tr := db.CreateTransaction()
		_, err := tr.Get([]byte("k"))
		return err
	}
	if err := read(); err == nil {
		t.Fatal("PReadTooOld=1 should fail every read")
	}
	inj.Disable()
	before := inj.Counts()
	for i := 0; i < 10; i++ {
		if err := read(); err != nil {
			t.Fatalf("disabled injector still dealt a fault: %v", err)
		}
	}
	if inj.Counts() != before {
		t.Error("disabled injector advanced its counters")
	}
	inj.Enable()
	if err := read(); err == nil {
		t.Fatal("re-enabled injector should fail the read again")
	}
}

// TestTransactSurfacesUnknownButIdempotentRetries: Transact must surface
// commit_unknown_result to the caller; TransactIdempotent retries it under
// the caller's idempotency promise.
func TestTransactSurfacesUnknownButIdempotentRetries(t *testing.T) {
	db, inj := faultyDB(FaultConfig{Seed: 11, PCommitUnknown: 1, UnknownNeverApplies: true})
	attempts := 0
	_, err := db.Transact(context.Background(), func(_ context.Context, tr *Transaction) (interface{}, error) {
		attempts++
		return nil, tr.Set([]byte("a"), []byte("v"))
	})
	if !IsMaybeCommitted(err) {
		t.Fatalf("Transact error = %v, want commit_unknown_result surfaced", err)
	}
	if attempts != 1 {
		t.Fatalf("Transact ran the closure %d times; ambiguity must not blind-retry", attempts)
	}

	attempts = 0
	//rl:idempotent test closure blind-writes a constant; re-running converges
	v, err := db.TransactIdempotent(context.Background(), func(_ context.Context, tr *Transaction) (interface{}, error) {
		attempts++
		if attempts == 2 {
			inj.Disable() // let the retry's commit through
		}
		return "ok", tr.Set([]byte("b"), []byte("v"))
	})
	if err != nil || v != "ok" {
		t.Fatalf("TransactIdempotent = (%v, %v), want (ok, nil)", v, err)
	}
	if attempts != 2 {
		t.Fatalf("TransactIdempotent attempts = %d, want 2 (one ambiguous failure, one success)", attempts)
	}
}

// TestLatencySpikesOnlyWithModel: spikes need a latency clock; with the model
// enabled they appear in SimWait, with it disabled they are never dealt.
func TestLatencySpikesOnlyWithModel(t *testing.T) {
	spike := 5 * time.Millisecond
	inj := NewFaultInjector(FaultConfig{Seed: 5, PLatencySpike: 1, SpikeLatency: spike})
	db := Open(&Options{
		Faults:  inj,
		Latency: LatencyModel{PerRead: time.Microsecond, Virtual: true},
		Sleep:   func(time.Duration) {},
	})
	tr := db.CreateTransaction()
	if _, err := tr.Get([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if got := inj.Counts().LatencySpikes; got != 1 {
		t.Fatalf("LatencySpikes = %d, want 1", got)
	}
	if wait := time.Duration(tr.Stats().SimWaitNanos); wait < spike {
		t.Fatalf("spiked read waited %v, want >= %v", wait, spike)
	}

	injOff := NewFaultInjector(FaultConfig{Seed: 5, PLatencySpike: 1, SpikeLatency: spike})
	dbOff := Open(&Options{Faults: injOff, Sleep: func(time.Duration) {}})
	trOff := dbOff.CreateTransaction()
	if _, err := trOff.Get([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if got := injOff.Counts().LatencySpikes; got != 0 {
		t.Fatalf("spikes dealt without a latency model: %d", got)
	}
}
