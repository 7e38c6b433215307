// Fleet endpoints: the service side of the coordinator/worker sharding
// protocol (see docs/FLEET.md and internal/fleet).
//
//	GET  /fleet            role, worker health (coordinator), queue depth (worker)
//	POST /fleet/register   worker enrollment + heartbeat (coordinator role)
//	POST /fleet/deregister worker drain notice (coordinator role)
//	POST /fleet/unit       execute one work unit (worker role)
//
// A worker runs units on a bounded queue separate from the interactive
// /compile and /run pool: SweepSlots units execute concurrently, twice
// as many more may wait (sweepQueuePerSlot), and anything beyond that
// is shed with 503 + Retry-After so the coordinator redistributes the
// unit instead of this worker queueing unboundedly.
package service

import (
	"context"
	"net/http"
	"strings"

	"mat2c/internal/fleet"
)

// FleetStatus is the GET /fleet reply. Coordinator populates
// Coordinator; Worker populates Sweep; a single-role daemon reports
// just its role.
type FleetStatus struct {
	Role        string          `json:"role"`
	Coordinator *fleet.Status   `json:"coordinator,omitempty"`
	Sweep       *SweepQueueInfo `json:"sweep,omitempty"`
}

// SweepQueueInfo is a worker's sweep-queue gauge: capacity and current
// occupancy of the bounded unit queue.
type SweepQueueInfo struct {
	Slots    int `json:"slots"`
	Queue    int `json:"queue"`
	Running  int `json:"running"`
	Admitted int `json:"admitted"`
}

func (s *Server) handleFleetStatus(w http.ResponseWriter, r *http.Request) {
	finish := s.metrics.RequestStarted("fleet_status")
	defer func() { finish(http.StatusOK, false, false, false) }()

	st := FleetStatus{Role: s.cfg.Role.String()}
	switch s.cfg.Role {
	case RoleCoordinator:
		cs := s.coord.Status()
		st.Coordinator = &cs
	case RoleWorker:
		st.Sweep = &SweepQueueInfo{
			Slots:    s.cfg.SweepSlots,
			Queue:    sweepQueuePerSlot * s.cfg.SweepSlots,
			Running:  len(s.sweepSlots),
			Admitted: len(s.sweepAdmit),
		}
	}
	writeJSON(w, st)
}

// handleFleetRegister (POST /fleet/register) enrolls — or, for a known
// URL, heartbeats — a worker.
func (s *Server) handleFleetRegister(w http.ResponseWriter, r *http.Request) {
	finish := s.metrics.RequestStarted("fleet_register")
	status := http.StatusOK
	defer func() { finish(status, false, false, false) }()

	var req fleet.RegisterRequest
	if code := s.decodeBody(w, r, &req, false); code != 0 {
		status = code
		return
	}
	req.URL = strings.TrimRight(strings.TrimSpace(req.URL), "/")
	if req.URL == "" {
		status = http.StatusBadRequest
		httpError(w, status, "missing \"url\"")
		return
	}
	id := s.coord.Register(req.URL, req.Slots)
	reply := fleet.RegisterReply{ID: id}
	if s.artifacts != nil {
		// Advertise the shared cache origin path-relative; the worker
		// resolves it against the coordinator base URL it already knows.
		reply.ArtifactURL = "/artifact"
	}
	writeJSON(w, reply)
}

// handleFleetDeregister (POST /fleet/deregister) removes a draining
// worker from dispatch. Unknown URLs are fine — deregistration is
// idempotent.
func (s *Server) handleFleetDeregister(w http.ResponseWriter, r *http.Request) {
	finish := s.metrics.RequestStarted("fleet_deregister")
	status := http.StatusOK
	defer func() { finish(status, false, false, false) }()

	var req fleet.RegisterRequest
	if code := s.decodeBody(w, r, &req, false); code != 0 {
		status = code
		return
	}
	known := s.coord.Deregister(strings.TrimRight(strings.TrimSpace(req.URL), "/"))
	writeJSON(w, map[string]bool{"deregistered": known})
}

// handleFleetUnit (POST /fleet/unit) executes one work unit through
// the worker's shared compilation cache. Admission is two-stage: a
// non-blocking reservation against the bounded queue (full → shed with
// 503 + Retry-After), then a blocking wait for an execution slot under
// the dispatcher's request context — a coordinator that gives up on
// the RPC frees the queue spot immediately.
func (s *Server) handleFleetUnit(w http.ResponseWriter, r *http.Request) {
	finish := s.metrics.RequestStarted("fleet_unit")
	status := http.StatusOK
	timedOut, cancelled := false, false
	defer func() { finish(status, timedOut, cancelled, false) }()

	select {
	case s.sweepAdmit <- struct{}{}:
		defer func() { <-s.sweepAdmit }()
	default:
		status = http.StatusServiceUnavailable
		s.metrics.QueueShed("sweep")
		w.Header().Set("Retry-After", "1")
		httpError(w, status, "sweep queue full (%d running + %d queued)",
			s.cfg.SweepSlots, sweepQueuePerSlot*s.cfg.SweepSlots)
		return
	}

	var u fleet.Unit
	if code := s.decodeBody(w, r, &u, false); code != 0 {
		status = code
		return
	}

	select {
	case s.sweepSlots <- struct{}{}:
		defer func() { <-s.sweepSlots }()
	case <-r.Context().Done():
		// The coordinator cancelled or abandoned the dispatch while the
		// unit was queued; nothing ran, nothing to report.
		status, cancelled = http.StatusServiceUnavailable, true
		httpError(w, status, "dispatch cancelled while queued")
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), fleet.UnitTimeout)
	defer cancel()
	res, err := fleet.Execute(ctx, &u, s.cache)
	if err != nil {
		if isCtxErr(err) {
			if r.Context().Err() != nil {
				status, cancelled = http.StatusServiceUnavailable, true
				httpError(w, status, "unit %s cancelled by the dispatcher", u.ID)
			} else {
				status, timedOut = http.StatusGatewayTimeout, true
				httpError(w, status, "unit %s exceeded %s", u.ID, fleet.UnitTimeout)
			}
			return
		}
		// The unit itself is bad (unparseable processor, unknown kind):
		// a permanent rejection, so the coordinator fails the run instead
		// of retrying a unit that can never succeed.
		status = http.StatusUnprocessableEntity
		httpError(w, status, "%v", err)
		return
	}
	for _, vr := range res.DSE {
		s.metrics.ObserveDSEVariant(vr.Result.CacheLookups, vr.Result.CacheHits)
	}
	if err := fleet.WriteResult(w, res); err != nil {
		status = http.StatusInternalServerError
		httpError(w, status, "%v", err)
	}
}
