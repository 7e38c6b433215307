// Async jobs: the lifecycle /dse and /isx share. A POST validates its
// request synchronously, registers a job under a sequential id
// ("dse-1", "isx-1", ...) and runs it in the background; GET /{kind}
// lists the jobs still held, GET /{kind}/{id} reports one, and DELETE
// /{kind}/{id} cancels it. A job moves from running through cancelling
// (a DELETE, or server shutdown, asked it to stop) to cancelled, or
// from running to failed or done. Each kind keeps at most
// maxFinishedJobs finished jobs, dropping the oldest first.
package service

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
)

// maxFinishedJobs bounds each registry's finished jobs, so a
// long-lived server does not accumulate reports without bound.
const maxFinishedJobs = 32

// Progress counts a job's evaluated work items against its total
// (variants, for /dse).
type Progress struct {
	Evaluated int `json:"evaluated"`
	Total     int `json:"total"`
}

// JobAccepted is the 202 reply to a job POST: the job is queued.
type JobAccepted struct {
	ID     string `json:"id"`
	Status string `json:"status_url"`
}

// JobStatus is the GET /{kind}/{id} (and DELETE /{kind}/{id}) reply.
// Progress is present only for kinds that count it; Report only once
// the job is done.
type JobStatus[R any] struct {
	ID    string `json:"id"`
	State string `json:"state"` // "running", "cancelling", "done", "failed", "cancelled"
	*Progress
	Error  string `json:"error,omitempty"`
	Report *R     `json:"report,omitempty"`
}

// JobSummary is one GET /{kind} entry: a job's status without its
// (potentially large) report.
type JobSummary struct {
	ID    string `json:"id"`
	State string `json:"state"`
	*Progress
	Error  string `json:"error,omitempty"`
	Status string `json:"status_url"`
}

// JobList is the GET /{kind} reply, oldest job first.
type JobList struct {
	Jobs []JobSummary `json:"jobs"`
}

// job is one background run's lifecycle state; R is its report type.
type job[R any] struct {
	id string
	// cancel aborts the job's context; safe to call any number of times
	// from any goroutine.
	cancel context.CancelFunc

	// settled is closed once finish has recorded the outcome and
	// retired the finished jobs beyond the cap.
	settled chan struct{}

	mu        sync.Mutex
	progress  *Progress // nil for kinds without progress
	done      bool      // also written under the registry's mu
	cancelled bool      // a DELETE (or server shutdown) requested cancellation
	err       error
	report    *R
}

// advance counts one evaluated work item.
func (j *job[R]) advance() {
	j.mu.Lock()
	j.progress.Evaluated++
	j.mu.Unlock()
}

func (j *job[R]) status() JobStatus[R] {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus[R]{ID: j.id}
	if j.progress != nil {
		p := *j.progress
		st.Progress = &p
	}
	switch {
	case !j.done && j.cancelled:
		st.State = "cancelling"
	case !j.done:
		st.State = "running"
	case j.cancelled:
		st.State = "cancelled"
		if j.err != nil {
			st.Error = j.err.Error()
		}
	case j.err != nil:
		st.State = "failed"
		st.Error = j.err.Error()
	default:
		st.State = "done"
		st.Report = j.report
	}
	return st
}

// jobs is one kind's job registry and its list, status and cancel
// handlers.
type jobs[R any] struct {
	kind    string // "dse" or "isx": id prefix, route, and metrics name
	metrics *Metrics
	// size measures a done job's report for the kind's last-report
	// gauge in /metrics.
	size func(*R) int

	mu       sync.Mutex
	seq      int
	byID     map[string]*job[R]
	order    []string // submission order
	finished int
}

func newJobs[R any](kind string, m *Metrics, size func(*R) int) *jobs[R] {
	return &jobs[R]{kind: kind, metrics: m, size: size, byID: map[string]*job[R]{}}
}

// route mounts the kind's endpoints, with post as its POST handler.
func (r *jobs[R]) route(mux *http.ServeMux, post http.HandlerFunc) {
	mux.HandleFunc("POST /"+r.kind, post)
	mux.HandleFunc("GET /"+r.kind, r.handleList)
	mux.HandleFunc("GET /"+r.kind+"/{id}", r.handleStatus)
	mux.HandleFunc("DELETE /"+r.kind+"/{id}", r.handleCancel)
}

// start registers a job under a fresh sequential id and runs it in the
// background under a context descending from parent, so cancelling
// parent (server shutdown) cancels it too. progress, when non-nil,
// starts the job's progress counters.
func (r *jobs[R]) start(parent context.Context, progress *Progress, run func(context.Context, *job[R]) (*R, error)) *job[R] {
	ctx, cancel := context.WithCancel(parent)
	j := &job[R]{cancel: cancel, progress: progress, settled: make(chan struct{})}
	r.mu.Lock()
	r.seq++
	j.id = fmt.Sprintf("%s-%d", r.kind, r.seq)
	r.byID[j.id] = j
	r.order = append(r.order, j.id)
	r.mu.Unlock()

	r.metrics.JobStarted(r.kind)
	go func() {
		defer cancel()
		rep, err := run(ctx, j)
		cancelled := err != nil && isCtxErr(err)
		size := 0
		if rep != nil {
			size = r.size(rep)
		}
		r.metrics.JobFinished(r.kind, size, err != nil && !cancelled, cancelled)
		r.finish(j, rep, err, cancelled)
	}()
	return j
}

// finish records a job's outcome and, in the same critical section,
// retires the oldest finished job beyond the cap: a job observed done
// has already been counted against it.
func (r *jobs[R]) finish(j *job[R], rep *R, err error, cancelled bool) {
	defer close(j.settled)
	r.mu.Lock()
	defer r.mu.Unlock()
	j.mu.Lock()
	j.done, j.err, j.report = true, err, rep
	if cancelled {
		j.cancelled = true
	}
	j.mu.Unlock()
	if r.finished++; r.finished <= maxFinishedJobs {
		return
	}
	for i, id := range r.order {
		if r.byID[id].done {
			delete(r.byID, id)
			r.order = slices.Delete(r.order, i, i+1)
			r.finished--
			return
		}
	}
}

// lookup returns the job a request's {id} names, or answers 404 and
// returns nil.
func (r *jobs[R]) lookup(w http.ResponseWriter, req *http.Request) *job[R] {
	id := req.PathValue("id")
	r.mu.Lock()
	j := r.byID[id]
	r.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, "no such %s job %q", strings.ToUpper(r.kind), id)
	}
	return j
}

// handleList (GET /{kind}) lists every job the registry still holds,
// in submission order. Reports are omitted — fetch them per job via
// the status URL.
func (r *jobs[R]) handleList(w http.ResponseWriter, req *http.Request) {
	finish := r.metrics.RequestStarted(r.kind + "_list")
	defer func() { finish(http.StatusOK, false, false, false) }()

	r.mu.Lock()
	held := make([]*job[R], len(r.order))
	for i, id := range r.order {
		held[i] = r.byID[id]
	}
	r.mu.Unlock()

	list := JobList{Jobs: []JobSummary{}}
	for _, j := range held {
		st := j.status()
		list.Jobs = append(list.Jobs, JobSummary{
			ID:       st.ID,
			State:    st.State,
			Progress: st.Progress,
			Error:    st.Error,
			Status:   "/" + r.kind + "/" + st.ID,
		})
	}
	writeJSON(w, list)
}

// handleStatus (GET /{kind}/{id}) reports one job.
func (r *jobs[R]) handleStatus(w http.ResponseWriter, req *http.Request) {
	finish := r.metrics.RequestStarted(r.kind + "_status")
	status := http.StatusOK
	defer func() { finish(status, false, false, false) }()

	j := r.lookup(w, req)
	if j == nil {
		status = http.StatusNotFound
		return
	}
	writeJSON(w, j.status())
}

// handleCancel (DELETE /{kind}/{id}) cancels a running job. The job
// moves through "cancelling" to "cancelled" once its run observes the
// cancellation. Cancelling a finished job is a no-op; the reply is
// always the job's current status.
func (r *jobs[R]) handleCancel(w http.ResponseWriter, req *http.Request) {
	finish := r.metrics.RequestStarted(r.kind + "_cancel")
	status := http.StatusOK
	defer func() { finish(status, false, false, false) }()

	j := r.lookup(w, req)
	if j == nil {
		status = http.StatusNotFound
		return
	}
	j.mu.Lock()
	if !j.done {
		j.cancelled = true
	}
	j.mu.Unlock()
	j.cancel()
	writeJSON(w, j.status())
}
