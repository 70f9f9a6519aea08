package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"pts/internal/core"
)

// API is the daemon's HTTP front door over one Scheduler. Every
// endpoint speaks JSON; the events endpoint streams the per-job event
// log as server-sent events.
//
// The route patterns registered in Handler are the service's source of
// truth: scripts/check-docs.sh cross-checks them against the endpoint
// table in README.md and ARCHITECTURE.md, both directions.
type API struct {
	s     *Scheduler
	start time.Time
}

// NewAPI wraps a scheduler in its HTTP surface.
func NewAPI(s *Scheduler) *API {
	return &API{s: s, start: time.Now()}
}

// Handler returns the daemon's route table.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", a.submitJob)
	mux.HandleFunc("GET /v1/jobs", a.listJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", a.getJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", a.cancelJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", a.jobEvents)
	mux.HandleFunc("GET /v1/fleet", a.fleetStatus)
	mux.HandleFunc("GET /healthz", a.healthz)
	return mux
}

// writeJSON emits one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errorBody is the uniform error envelope every non-2xx response
// carries: {"error":{"code":"...","message":"..."}}. The code is the
// machine-readable half of the contract — clients branch on it, the
// message is for humans and may change wording freely.
type errorBody struct {
	Error errorInfo `json:"error"`
}

type errorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error codes of the v1 API.
const (
	codeQueueFull       = "queue_full"       // 429: bounded job queue at capacity
	codeNeverAdmissible = "never_admissible" // 409: more workers requested than the fleet has
	codeTerminal        = "terminal"         // 409: cancel of an already-finished job
	codeDraining        = "draining"         // 503: daemon is shutting down
	codeNotFound        = "not_found"        // 404: no such job
	codeBadSpec         = "bad_spec"         // 400: malformed or invalid submission
	codeBadRequest      = "bad_request"      // 400: malformed query parameter
)

// writeError maps a scheduler error to its status code and machine
// code and emits the error envelope; fallbackCode classifies plain
// errors (decode and validation failures) that carry no sentinel.
func writeError(w http.ResponseWriter, err error, fallbackCode string) {
	status, code := http.StatusBadRequest, fallbackCode
	switch {
	case errors.Is(err, ErrQueueFull):
		status, code = http.StatusTooManyRequests, codeQueueFull
	case errors.Is(err, ErrNeverAdmissible):
		status, code = http.StatusConflict, codeNeverAdmissible
	case errors.Is(err, ErrTerminal):
		status, code = http.StatusConflict, codeTerminal
	case errors.Is(err, ErrDraining):
		status, code = http.StatusServiceUnavailable, codeDraining
	}
	writeJSON(w, status, errorBody{errorInfo{Code: code, Message: err.Error()}})
}

// writeNotFound emits the 404 envelope.
func writeNotFound(w http.ResponseWriter) {
	writeJSON(w, http.StatusNotFound, errorBody{errorInfo{Code: codeNotFound, Message: "no such job"}})
}

// submitPayload is the POST /v1/jobs request body.
type submitPayload struct {
	// Problem names the built-in workload.
	Problem problemPayload `json:"problem"`
	// Workers is how many fleet workers the job leases (0 = run every
	// task in the daemon process).
	Workers int `json:"workers"`
	// Config optionally overrides search parameters; absent fields keep
	// the paper's defaults.
	Config *configPayload `json:"config,omitempty"`
}

// problemPayload selects a workload: {"kind":"placement","circuit":
// "c532"}, {"kind":"qap","n":30,"seed":7}, or a scheduling benchmark
// {"kind":"flowshop","instance":"ta001"} /
// {"kind":"jobshop","instance":"ft06"}.
type problemPayload struct {
	Kind     string `json:"kind"`
	Circuit  string `json:"circuit,omitempty"`
	N        int    `json:"n,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	Instance string `json:"instance,omitempty"`
}

// configPayload is the JSON shape of the overridable search knobs.
// Pointers distinguish "absent" (keep the default) from an explicit
// zero.
type configPayload struct {
	TSWs           *int     `json:"tsws,omitempty"`
	CLWs           *int     `json:"clws,omitempty"`
	GlobalIters    *int     `json:"global_iters,omitempty"`
	LocalIters     *int     `json:"local_iters,omitempty"`
	Trials         *int     `json:"trials,omitempty"`
	Depth          *int     `json:"depth,omitempty"`
	Tenure         *int     `json:"tenure,omitempty"`
	DiversifyDepth *int     `json:"diversify_depth,omitempty"`
	HalfSync       *bool    `json:"half_sync,omitempty"`
	Adaptive       *bool    `json:"adaptive,omitempty"`
	Seed           *uint64  `json:"seed,omitempty"`
	WorkScale      *float64 `json:"work_scale,omitempty"`
}

// buildConfig folds the payload's overrides over the defaults.
func (p *configPayload) buildConfig() core.Config {
	cfg := core.DefaultConfig()
	if p == nil {
		return cfg
	}
	if p.TSWs != nil {
		cfg.TSWs = *p.TSWs
	}
	if p.CLWs != nil {
		cfg.CLWs = *p.CLWs
	}
	if p.GlobalIters != nil {
		cfg.GlobalIters = *p.GlobalIters
	}
	if p.LocalIters != nil {
		cfg.LocalIters = *p.LocalIters
	}
	if p.Trials != nil {
		cfg.Trials = *p.Trials
	}
	if p.Depth != nil {
		cfg.Depth = *p.Depth
	}
	if p.Tenure != nil {
		cfg.Tenure = *p.Tenure
	}
	if p.DiversifyDepth != nil {
		cfg.DiversifyDepth = *p.DiversifyDepth
	}
	if p.HalfSync != nil {
		cfg.HalfSync = *p.HalfSync
	}
	if p.Adaptive != nil {
		cfg.Adaptive = *p.Adaptive
	}
	if p.Seed != nil {
		cfg.Seed = *p.Seed
	}
	if p.WorkScale != nil {
		cfg.WorkScale = *p.WorkScale
	}
	return cfg
}

// submitJob handles POST /v1/jobs: decode, enqueue, 201 with the job
// view (or 400/409/429/503 per the scheduler's refusal).
func (a *API) submitJob(w http.ResponseWriter, r *http.Request) {
	var p submitPayload
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		writeError(w, fmt.Errorf("decode request: %w", err), codeBadSpec)
		return
	}
	j, err := a.s.Submit(Request{
		Spec: core.ProblemSpec{
			Kind:     p.Problem.Kind,
			Circuit:  p.Problem.Circuit,
			QAPN:     p.Problem.N,
			QAPSeed:  p.Problem.Seed,
			Instance: p.Problem.Instance,
		},
		Workers: p.Workers,
		Cfg:     p.Config.buildConfig(),
	})
	if err != nil {
		writeError(w, err, codeBadSpec)
		return
	}
	writeJSON(w, http.StatusCreated, j.View(false))
}

// listJobs handles GET /v1/jobs: jobs in submission order (which is
// job-id order — ids are sequential), without the (large) result
// payloads. Optional query parameters filter and paginate:
// ?status=queued|running|done|failed|cancelled keeps one lifecycle
// state, ?limit=N caps the page size, and ?after=<job id> resumes
// after the named job — pages are keyed by the stable job id, so a
// job finishing between requests never shifts the cursor. A truncated
// page carries "next_after": the cursor of the next one.
func (a *API) listJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	statusFilter := ""
	if v := q.Get("status"); v != "" {
		if _, ok := statusFromWire(v); !ok {
			writeError(w, fmt.Errorf("unknown status %q", v), codeBadRequest)
			return
		}
		statusFilter = v
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, fmt.Errorf("limit %q is not a positive integer", v), codeBadRequest)
			return
		}
		limit = n
	}
	after := q.Get("after")

	jobs := a.s.Jobs()
	if after != "" {
		i := 0
		for i < len(jobs) && jobs[i].ID != after {
			i++
		}
		if i == len(jobs) {
			writeError(w, fmt.Errorf("unknown cursor %q", after), codeBadRequest)
			return
		}
		jobs = jobs[i+1:]
	}
	views := make([]View, 0, len(jobs))
	for _, v := range jobs {
		if statusFilter != "" && v.Status != statusFilter {
			continue
		}
		views = append(views, v)
	}
	body := map[string]any{"jobs": views}
	if limit > 0 && len(views) > limit {
		views = views[:limit]
		body["jobs"] = views
		body["next_after"] = views[limit-1].ID
	}
	writeJSON(w, http.StatusOK, body)
}

// getJob handles GET /v1/jobs/{id}: the full view including the run
// result once the job has one.
func (a *API) getJob(w http.ResponseWriter, r *http.Request) {
	j, ok := a.s.Get(r.PathValue("id"))
	if !ok {
		writeNotFound(w)
		return
	}
	writeJSON(w, http.StatusOK, j.View(true))
}

// cancelJob handles DELETE /v1/jobs/{id}: dequeue a queued job, stop a
// running one at its best-so-far.
func (a *API) cancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := a.s.Get(id)
	if !ok {
		writeNotFound(w)
		return
	}
	if err := a.s.Cancel(id); err != nil {
		writeError(w, err, codeBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, j.View(false))
}

// jobEvents handles GET /v1/jobs/{id}/events: the job's event log as
// server-sent events — one "progress" event per completed global
// iteration, bracketed by lifecycle events, closing after the terminal
// one. Replays from the start by default; resume with the standard
// Last-Event-ID header (or ?after=<seq>).
func (a *API) jobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := a.s.Get(r.PathValue("id"))
	if !ok {
		writeNotFound(w)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError,
			errorBody{errorInfo{Code: "internal", Message: "streaming unsupported"}})
		return
	}
	next := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if id, err := strconv.Atoi(v); err == nil {
			next = id + 1
		}
	}
	if v := r.URL.Query().Get("after"); v != "" {
		if id, err := strconv.Atoi(v); err == nil {
			next = id + 1
		}
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	for {
		evs, terminal, wait := j.EventsSince(next)
		for _, e := range evs {
			data, err := json.Marshal(e)
			if err != nil {
				data = []byte(fmt.Sprintf(`{"seq":%d,"kind":%q}`, e.Seq, e.Kind))
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Kind, data)
		}
		next += len(evs)
		fl.Flush()
		if terminal {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-wait:
		}
	}
}

// fleetStatus handles GET /v1/fleet: the worker registry plus queue
// depth at a glance.
func (a *API) fleetStatus(w http.ResponseWriter, r *http.Request) {
	f := a.s.Fleet()
	nodes := f.Nodes()
	if nodes == nil {
		nodes = []NodeInfo{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total":   f.TotalWorkers(),
		"free":    f.FreeWorkers(),
		"queued":  a.s.Queued(),
		"workers": nodes,
	})
}

// healthz handles GET /healthz: liveness plus coarse load numbers.
func (a *API) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"uptime":  time.Since(a.start).Round(time.Second).String(),
		"jobs":    a.s.Count(),
		"queued":  a.s.Queued(),
		"workers": a.s.Fleet().TotalWorkers(),
	})
}
