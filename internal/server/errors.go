package server

import (
	"encoding/json"
	"errors"
	"net/http"

	"blowfish"
	"blowfish/internal/service"
)

// APIError is the structured error body: {"error": {"code", "message"}}.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorEnvelope struct {
	Error APIError `json:"error"`
}

func (e *APIError) Error() string { return e.Code + ": " + e.Message }

// httpStatus maps an error code to its response status. Every code in
// service.Codes has an explicit case (enforced by the errcode analyzer);
// the default covers uncoded fallback strings from writeError callers.
func httpStatus(code string) int {
	switch code {
	case service.CodeBadRequest:
		return http.StatusBadRequest
	case service.CodeUnknownPolicy, service.CodeUnknownDataset, service.CodeUnknownSession, service.CodeUnknownStream:
		return http.StatusNotFound
	case service.CodeBudgetExhausted, service.CodePolicyInUse, service.CodeDatasetInUse:
		return http.StatusConflict
	case service.CodeDomainMismatch:
		return http.StatusUnprocessableEntity
	case service.CodeDurability:
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code, message string) {
	writeJSON(w, httpStatus(code), errorEnvelope{Error: APIError{Code: code, Message: message}})
}

// writeServiceError renders a service-layer failure. Coded errors carry
// their own status mapping; uncoded errors fall back to the library
// mapping.
func writeServiceError(w http.ResponseWriter, err error) {
	var se *service.Error
	if errors.As(err, &se) {
		writeError(w, se.Code, se.Message)
		return
	}
	writeLibError(w, err)
}

// writeLibError maps a blowfish library error onto the structured error
// vocabulary: budget exhaustion and domain mismatches get their dedicated
// codes, everything else is a bad request.
func writeLibError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, blowfish.ErrBudgetExceeded):
		writeError(w, service.CodeBudgetExhausted, err.Error())
	case errors.Is(err, blowfish.ErrDomainMismatch):
		writeError(w, service.CodeDomainMismatch, err.Error())
	default:
		writeError(w, service.CodeBadRequest, err.Error())
	}
}
