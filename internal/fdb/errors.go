package fdb

import (
	"errors"
	"fmt"
)

// Error codes mirror FoundationDB's numbering so client code (the Record
// Layer) can make the same retry decisions it would against a real cluster.
const (
	CodeNotCommitted        = 1020 // transaction conflict; retryable
	CodeCommitUnknownResult = 1021 // commit may or may not have applied; ambiguous, NOT retryable
	CodeTransactionTooOld   = 1007 // read version is before the MVCC window
	CodeFutureVersion       = 1009 // read version is ahead of the cluster; retryable
	CodeTransactionTimedOut = 1031 // exceeded the 5 second limit
	CodeTransactionCanceled = 1025
	CodeAccessedUnreadable  = 1036 // read of a key this transaction wrote with a versionstamp
	CodeUsedDuringCommit    = 2017
	CodeTransactionTooLarge = 2101
	CodeKeyTooLarge         = 2102
	CodeValueTooLarge       = 2103
	CodeClientInvalidOp     = 2000
)

// Error is a FoundationDB-style coded error.
type Error struct {
	Code int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("fdb error %d: %s", e.Code, e.Msg)
}

// Retryable reports whether the standard retry loop should re-run the
// transaction after this error. commit_unknown_result is deliberately NOT
// here: the commit may have applied, so blindly re-running a non-idempotent
// closure risks a double write. Callers that know their closure is idempotent
// opt in via TransactIdempotent / Runner.RunIdempotent.
func (e *Error) Retryable() bool {
	switch e.Code {
	case CodeNotCommitted, CodeTransactionTooOld, CodeFutureVersion, CodeTransactionTimedOut:
		return true
	}
	return false
}

func errCode(code int, format string, args ...interface{}) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// IsRetryable reports whether err is (or wraps) a retryable FoundationDB
// error.
func IsRetryable(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.Retryable()
}

// IsConflict reports whether err is (or wraps) a transaction conflict
// (not_committed).
func IsConflict(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.Code == CodeNotCommitted
}

// IsAccessedUnreadable reports whether err is (or wraps) accessed_unreadable:
// the transaction read a key whose value it has set to its own, not yet
// known, commit versionstamp (MetadataVersion after BumpMetadataVersion).
func IsAccessedUnreadable(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.Code == CodeAccessedUnreadable
}

// IsMaybeCommitted reports whether err is (or wraps) a *MaybeCommittedError
// or a raw commit_unknown_result: the commit's fate is genuinely unknown — it
// may or may not be durable. Unlike a clean failure, the only safe generic
// reaction is to surface the ambiguity; retrying is sound only for
// idempotent work.
func IsMaybeCommitted(err error) bool {
	var me *MaybeCommittedError
	var fe *Error
	return errors.As(err, &me) || errors.As(err, &fe) && fe.Code == CodeCommitUnknownResult
}
