// Design-space exploration endpoint: POST /dse accepts a sweep
// specification, validates it synchronously, and runs the exploration
// asynchronously against the server's shared compilation cache — the
// serving-layer shape of the compiler↔architecture loop, where one
// warm cache amortizes compilation across sweeps and across clients.
// The job follows the shared async-job lifecycle (jobs.go); its status
// also counts evaluated variants, and once done carries the report.
// DELETE /dse/{id} cancels a running sweep: workers observe the
// cancellation between variants and stop evaluating. In coordinator
// role the same endpoints shard the sweep across the fleet instead of
// exploring in-process; the merged report is byte-identical.
package service

import (
	"context"
	"net/http"
	"strings"

	"mat2c/internal/dse"
)

// DSERequest is the POST /dse body. Sweep carries the axes (defaults
// apply per dse.Sweep); Procs optionally fans the same axes out over
// several base targets into one merged frontier.
type DSERequest struct {
	Sweep   *dse.Sweep `json:"sweep,omitempty"`
	Procs   []string   `json:"procs,omitempty"`
	Jobs    int        `json:"jobs,omitempty"`
	Scale   float64    `json:"scale,omitempty"`
	Kernels []string   `json:"kernels,omitempty"`
	// EmitC additionally generates C artifacts for every variant
	// (slower; off by default for cycle-model scoring).
	EmitC bool `json:"emit_c,omitempty"`
}

// DSEAccepted is the POST /dse reply: the job is queued, and
// Variants counts what it will evaluate.
type DSEAccepted struct {
	JobAccepted
	Variants int `json:"variants"`
}

// sweeps expands the request into per-base sweeps.
func (req *DSERequest) sweeps() []*dse.Sweep {
	base := req.Sweep
	if base == nil {
		base = &dse.Sweep{}
	}
	if len(req.Procs) == 0 {
		return []*dse.Sweep{base}
	}
	var out []*dse.Sweep
	for _, p := range req.Procs {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		sw := *base
		sw.Base = p
		out = append(out, &sw)
	}
	if len(out) == 0 {
		out = []*dse.Sweep{base}
	}
	return out
}

func (s *Server) handleDSE(w http.ResponseWriter, r *http.Request) {
	finish := s.metrics.RequestStarted("dse")
	status := http.StatusAccepted
	defer func() { finish(status, false, false, false) }()

	var req DSERequest
	if code := s.decodeBody(w, r, &req, true); code != 0 {
		status = code
		return
	}

	// Validate the whole specification up front so a bad sweep fails
	// the POST, not the background job: enumerate every variant now.
	sweeps := req.sweeps()
	total := 0
	for _, sw := range sweeps {
		vs, err := sw.Enumerate()
		if err != nil {
			status = http.StatusUnprocessableEntity
			httpError(w, status, "%v", err)
			return
		}
		total += len(vs)
	}
	if err := dse.ValidateKernels(req.Kernels); err != nil {
		status = http.StatusUnprocessableEntity
		httpError(w, status, "%v", err)
		return
	}

	workers := req.Jobs
	if workers <= 0 || workers > s.cfg.Workers {
		workers = s.cfg.Workers
	}
	opts := dse.Options{
		Jobs:    workers,
		Scale:   req.Scale,
		Kernels: req.Kernels,
		Cache:   s.cache,
		EmitC:   req.EmitC,
	}
	// Coordinator role shards the sweep across the fleet; the two paths
	// share enumeration, per-variant evaluation, and report assembly, so
	// the reports agree byte for byte (modulo wall time).
	explore := dse.ExploreContext
	if s.coord != nil {
		explore = s.coord.ExploreDSE
	}
	j := s.sweeps.start(s.jobsCtx, &Progress{Total: total}, func(ctx context.Context, j *job[dse.Report]) (*dse.Report, error) {
		opts.OnVariant = func(vr dse.VariantResult) {
			j.advance()
			s.metrics.ObserveDSEVariant(vr.CacheLookups, vr.CacheHits)
		}
		return explore(ctx, sweeps, opts)
	})
	writeJSONStatus(w, status, DSEAccepted{
		JobAccepted: JobAccepted{ID: j.id, Status: "/dse/" + j.id},
		Variants:    total,
	})
}
