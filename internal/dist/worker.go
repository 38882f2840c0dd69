package dist

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"

	"dynlb"
)

// Worker is the HTTP handler of one fleet member (cmd/dynlbworker mounts
// it on a plain net/http server). It is stateless between requests: every
// job arrives as its full simulation inputs and is executed with
// dynlb.Run, as Plan.RunJob executes it in process, so results are
// bit-identical to any other placement of the job. A job that fails, or
// whose Results JSON cannot encode, comes back with its error instead.
//
// Endpoints:
//
//	POST /v1/jobs  — run one job; body wireJob, reply wireResult.
//	GET  /healthz  — liveness + load: {"status":"ok","slots":N,"busy":B,"jobs_done":D}.
type Worker struct {
	mux      *http.ServeMux
	sem      chan struct{} // execution slots shared across requests
	busy     atomic.Int64
	jobsDone atomic.Int64
}

// NewWorker returns a worker executing at most slots simulations at once
// (<= 0 selects runtime.NumCPU()). Requests beyond the limit queue on the
// shared semaphore, so an overloaded worker slows down rather than
// oversubscribing its CPUs.
func NewWorker(slots int) *Worker {
	if slots < 1 {
		slots = runtime.NumCPU()
	}
	w := &Worker{
		mux: http.NewServeMux(),
		sem: make(chan struct{}, slots),
	}
	w.mux.HandleFunc("POST /v1/jobs", w.handleJobs)
	w.mux.HandleFunc("GET /healthz", w.handleHealth)
	return w
}

// ServeHTTP implements http.Handler.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	w.mux.ServeHTTP(rw, req)
}

// Slots returns the worker's execution-slot count.
func (w *Worker) Slots() int { return cap(w.sem) }

// JobsDone returns the number of jobs executed since start.
func (w *Worker) JobsDone() int64 { return w.jobsDone.Load() }

func (w *Worker) handleHealth(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(rw, `{"status":"ok","slots":%d,"busy":%d,"jobs_done":%d}`+"\n",
		cap(w.sem), w.busy.Load(), w.jobsDone.Load())
}

func (w *Worker) handleJobs(rw http.ResponseWriter, req *http.Request) {
	dec := json.NewDecoder(req.Body)
	// A coordinator newer than this worker fails loudly here instead of
	// having Config fields it sets silently ignored.
	dec.DisallowUnknownFields()
	var j wireJob
	if err := dec.Decode(&j); err != nil {
		http.Error(rw, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	select {
	case w.sem <- struct{}{}:
	case <-req.Context().Done():
		return // coordinator gave up; nothing can read the reply
	}
	w.busy.Add(1)
	res := w.runOne(j)
	w.busy.Add(-1)
	<-w.sem
	rw.Header().Set("Content-Type", "application/json")
	// An encode error is a connection-level failure; the coordinator's
	// timeout handles it.
	_ = json.NewEncoder(rw).Encode(res)
}

// runOne executes a single job, converting panics and simulation errors
// into an error result so one bad job cannot take down the worker.
func (w *Worker) runOne(j wireJob) (res wireResult) {
	res.ID = j.ID
	defer func() {
		if p := recover(); p != nil {
			res = wireResult{ID: j.ID, Err: fmt.Sprintf("worker panic: %v", p)}
		}
	}()
	st, err := dynlb.StrategyByName(j.Strategy)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	r, err := dynlb.Run(j.Config, st)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	w.jobsDone.Add(1)
	raw, err := json.Marshal(r)
	if err != nil {
		res.Err = "encode results: " + err.Error()
		return res
	}
	res.Results = raw
	return res
}
