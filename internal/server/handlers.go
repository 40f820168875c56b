package server

import (
	"errors"
	"net/http"

	"blowfish/internal/service"
)

// decodeJSON parses a request body into v; see service.DecodeOne for
// what it refuses.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := service.DecodeOne(r.Body, v); err != nil {
		writeError(w, service.CodeBadRequest, "invalid JSON body: "+err.Error())
		return false
	}
	return true
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"sessions": s.router.SessionCount(),
		"streams":  s.router.StreamCount(),
	})
}

func (s *Server) handleCreatePolicy(w http.ResponseWriter, r *http.Request) {
	var req service.CreatePolicyRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	resp, err := s.router.CreatePolicy(req)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleGetPolicy(w http.ResponseWriter, r *http.Request) {
	resp, err := s.router.GetPolicy(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleListPolicies(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.router.ListPolicies())
}

func (s *Server) handleDeletePolicy(w http.ResponseWriter, r *http.Request) {
	if err := s.router.DeletePolicy(r.PathValue("id")); err != nil {
		writeServiceError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleCreateDataset(w http.ResponseWriter, r *http.Request) {
	var req service.CreateDatasetRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	resp, err := s.router.CreateDataset(req)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	resp, err := s.router.GetDataset(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.router.ListDatasets())
}

func (s *Server) handleDeleteDataset(w http.ResponseWriter, r *http.Request) {
	if err := s.router.DeleteDataset(r.PathValue("id")); err != nil {
		writeServiceError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req service.CreateSessionRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	resp, err := s.router.CreateSession(req)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	resp, err := s.router.GetSession(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.router.ListSessions())
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	if err := s.router.DeleteSession(r.PathValue("id")); err != nil {
		writeServiceError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHistogram(w http.ResponseWriter, r *http.Request) {
	var req service.HistogramRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	resp, err := s.router.Histogram(r.PathValue("id"), req)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCumulative(w http.ResponseWriter, r *http.Request) {
	var req service.CumulativeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	resp, err := s.router.Cumulative(r.PathValue("id"), req)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	var req service.RangeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	resp, err := s.router.Range(r.PathValue("id"), req)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCheckpoint triggers a manual checkpoint. An in-memory service has
// nothing to checkpoint; that stays a client error, not a durability one.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	stats, err := s.router.Checkpoint()
	switch {
	case errors.Is(err, service.ErrNotDurable):
		writeError(w, service.CodeBadRequest, "server is not durable (no data directory configured)")
	case err != nil:
		writeError(w, service.CodeDurability, err.Error())
	default:
		writeJSON(w, http.StatusOK, stats)
	}
}
