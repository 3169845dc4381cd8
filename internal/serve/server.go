// Package serve wires the hylo-serve HTTP surface: JSON job-lifecycle
// endpoints over the runner, artifact fetching, and the Prometheus-text
// metrics exporter. It is stdlib-only (net/http with Go 1.22 method+path
// patterns) and carries no state of its own — every handler is a thin
// translation layer onto serve/runner, with serve/httperror as the single
// error-rendering choke point.
//
// Routes:
//
//	POST   /v1/jobs                submit a job (train or bench)
//	GET    /v1/jobs                list jobs in submission order
//	GET    /v1/jobs/{id}           job status + live progress
//	DELETE /v1/jobs/{id}           cancel (running jobs checkpoint first)
//	GET    /v1/jobs/{id}/artifacts artifact manifest
//	GET    /v1/jobs/{id}/result    final metrics JSON
//	GET    /v1/jobs/{id}/telemetry per-job JSONL progress log
//	GET    /metrics                Prometheus text exposition
//	GET    /healthz                liveness + drain state
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync/atomic"

	"repro/internal/serve/api"
	"repro/internal/serve/httperror"
	"repro/internal/serve/runner"
	"repro/internal/telemetry"
)

// maxBodyBytes bounds POST bodies; job specs are small.
const maxBodyBytes = 1 << 20

// Server is the HTTP facade over a runner.
type Server struct {
	r   *runner.Runner
	mux *http.ServeMux
	// draining flips when graceful shutdown starts so /healthz reports the
	// drain (load balancers stop routing) before admission closes.
	draining atomic.Bool
}

// New builds a Server over the given runner.
func New(r *runner.Runner) *Server {
	s := &Server{r: r, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/artifacts", s.handleArtifacts)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/telemetry", s.handleTelemetry)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SetDraining marks the server as draining for /healthz.
func (s *Server) SetDraining() { s.draining.Store(true) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec api.JobSpec
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httperror.Write(w, httperror.BadRequest(fmt.Sprintf("decode job spec: %v", err)))
		return
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		httperror.Write(w, httperror.BadRequest(err.Error()))
		return
	}
	j, err := s.r.Submit(spec)
	if err != nil {
		httperror.Write(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, j.View())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.r.Jobs()
	out := api.JobList{Jobs: make([]api.Job, 0, len(jobs))}
	for _, j := range jobs {
		out.Jobs = append(out.Jobs, j.View())
	}
	writeJSON(w, http.StatusOK, out)
}

// lookup resolves {id} or writes a 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*runner.Job, bool) {
	id := r.PathValue("id")
	j, ok := s.r.Get(id)
	if !ok {
		httperror.Write(w, httperror.NotFound(fmt.Sprintf("job %q not found", id)))
	}
	return j, ok
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, j.View())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if err := s.r.Cancel(j.ID()); err != nil {
		httperror.Write(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.View())
}

func (s *Server) handleArtifacts(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, j.View().Artifacts)
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	res, ok := j.Result()
	if !ok {
		httperror.Write(w, httperror.Conflict(
			fmt.Sprintf("job %s has no result yet (state %s)", j.ID(), j.State())))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	path := j.View().Artifacts.Telemetry
	f, err := os.Open(path)
	if err != nil {
		httperror.Write(w, httperror.NotFound(
			fmt.Sprintf("job %s has no telemetry yet", j.ID())))
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	_, _ = io.Copy(w, f)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	telemetry.WritePrometheus(w, telemetry.Default().Metrics)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Status precedence: draining (going away; stop routing) beats
	// recovering (alive and accepting, but still re-enqueueing jobs from a
	// previous life) beats ok. Recovery is reported at 200 so orchestration
	// health checks pass while the backlog rebuilds.
	status := "ok"
	code := http.StatusOK
	if s.r.Recovering() {
		status = "recovering"
	}
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":      status,
		"running":     s.r.Running(),
		"queued":      s.r.QueueLen(),
		"jobs":        s.r.JobCount(),
		"max_running": s.r.MaxRunning(),
	})
}
