package service

import (
	"errors"
	"fmt"

	"blowfish"
)

// Error codes carried in the "error.code" field of failure responses.
// Clients branch on the code, not the message; fronts map codes onto
// transport-level statuses (internal/server maps them to HTTP statuses).
const (
	CodeBadRequest      = "bad_request"
	CodeUnknownPolicy   = "unknown_policy"
	CodeUnknownDataset  = "unknown_dataset"
	CodeUnknownSession  = "unknown_session"
	CodeUnknownStream   = "unknown_stream"
	CodeDomainMismatch  = "domain_mismatch"
	CodeBudgetExhausted = "budget_exhausted"
	CodePolicyInUse     = "policy_in_use"
	CodeDatasetInUse    = "dataset_in_use"
	CodeDurability      = "durability_error"
)

// Codes is the canonical registry of every error code the service can
// emit. blowfish-vet's errcode analyzer enforces the contract: every
// Code* constant is listed here, every constructed *Error carries a
// registered code, and internal/server's httpStatus mapping explicitly
// covers the whole table. Adding a code means adding it here and giving
// it a status in the same change.
var Codes = []string{
	CodeBadRequest,
	CodeUnknownPolicy,
	CodeUnknownDataset,
	CodeUnknownSession,
	CodeUnknownStream,
	CodeDomainMismatch,
	CodeBudgetExhausted,
	CodePolicyInUse,
	CodeDatasetInUse,
	CodeDurability,
}

// Error is the structured service failure every Core method reports:
// a stable machine code plus a human message. Fronts translate the code
// (an HTTP status); the message passes through verbatim.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *Error) Error() string { return e.Code + ": " + e.Message }

// errf builds a coded error with a formatted message.
func errf(code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// badRequest wraps a validation failure as the generic bad_request code.
func badRequest(err error) *Error {
	return &Error{Code: CodeBadRequest, Message: err.Error()}
}

// durabilityErr reports a refused write-ahead append.
func durabilityErr(err error) *Error {
	return &Error{Code: CodeDurability, Message: err.Error()}
}

// libError maps a blowfish library error onto the structured error
// vocabulary: budget exhaustion and domain mismatches get their dedicated
// codes, everything else is a bad request.
func libError(err error) *Error {
	switch {
	case errors.Is(err, blowfish.ErrBudgetExceeded):
		return &Error{Code: CodeBudgetExhausted, Message: err.Error()}
	case errors.Is(err, blowfish.ErrDomainMismatch):
		return &Error{Code: CodeDomainMismatch, Message: err.Error()}
	default:
		return &Error{Code: CodeBadRequest, Message: err.Error()}
	}
}

// ErrNotDurable reports Checkpoint on a core with no data directory.
var ErrNotDurable = errors.New("server: not durable (no data directory configured)")
