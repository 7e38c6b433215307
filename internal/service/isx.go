// Instruction-set-extension mining endpoint: POST /isx accepts a base
// target plus mining options, validates them synchronously, and runs
// the miner asynchronously — profiling, candidate enumeration, and
// per-candidate verification can take seconds, so the job follows the
// shared async-job lifecycle (jobs.go); once done its status carries
// the mining report. DELETE /isx/{id} cancels a running mine (the
// miner observes cancellation between kernels and between candidate
// verifications). In coordinator role the per-candidate verification
// pass is sharded across the fleet (planning stays on the
// coordinator); the report is byte-identical to in-process mining.
package service

import (
	"context"
	"net/http"

	mat2c "mat2c"
	"mat2c/internal/dse"
	"mat2c/internal/isx"
)

// ISXRequest is the POST /isx body.
type ISXRequest struct {
	// Proc is the base target: a built-in name, an embedded description,
	// or a server-side file path (default "dspasip").
	Proc string `json:"proc,omitempty"`
	// Kernels restricts the profiled kernels (default: full suite).
	Kernels []string `json:"kernels,omitempty"`
	// MaxNodes bounds mined pattern size; Top the candidates kept;
	// Scale the profiled problem sizes. Zero values pick the miner's
	// defaults.
	MaxNodes int     `json:"max_nodes,omitempty"`
	Top      int     `json:"top,omitempty"`
	Scale    float64 `json:"scale,omitempty"`
	// NoVerify skips the per-candidate recompile-and-measure pass.
	NoVerify bool `json:"no_verify,omitempty"`
}

func (s *Server) handleISX(w http.ResponseWriter, r *http.Request) {
	finish := s.metrics.RequestStarted("isx")
	status := http.StatusAccepted
	defer func() { finish(status, false, false, false) }()

	var req ISXRequest
	if code := s.decodeBody(w, r, &req, true); code != 0 {
		status = code
		return
	}

	// Validate the target and kernel selection up front so a bad request
	// fails the POST, not the background job.
	spec := req.Proc
	if spec == "" {
		spec = "dspasip"
	}
	proc, err := mat2c.LoadProcessor(spec)
	if err != nil {
		status = http.StatusUnprocessableEntity
		httpError(w, status, "%v", err)
		return
	}
	if err := dse.ValidateKernels(req.Kernels); err != nil {
		status = http.StatusUnprocessableEntity
		httpError(w, status, "%v", err)
		return
	}

	opts := isx.Options{
		Kernels:  req.Kernels,
		MaxNodes: req.MaxNodes,
		Top:      req.Top,
		Scale:    req.Scale,
		NoVerify: req.NoVerify,
	}
	// Coordinator role plans locally and fans candidate verification
	// out across the fleet; both paths share planning, verification,
	// and report assembly, so the reports agree byte for byte.
	mine := isx.MineContext
	if s.coord != nil {
		mine = s.coord.MineISX
	}
	j := s.mines.start(s.jobsCtx, nil, func(ctx context.Context, _ *job[isx.Report]) (*isx.Report, error) {
		return mine(ctx, proc, opts)
	})
	writeJSONStatus(w, status, JobAccepted{ID: j.id, Status: "/isx/" + j.id})
}
