package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pts/internal/core"
	"pts/internal/store"
)

// gatedStore wraps a store to steer the terminal journal write: with
// hold set, each terminal job record's Put reports the job id on held
// and waits for release; with fail set, it fails instead. Both are set
// before the scheduler starts.
type gatedStore struct {
	store.Store
	hold    bool
	fail    bool
	held    chan string
	release chan struct{}
}

func newGatedStore() *gatedStore {
	return &gatedStore{Store: store.NewMem(), held: make(chan string, 8), release: make(chan struct{})}
}

func (g *gatedStore) Put(key string, value []byte) error {
	var rec jobRecord
	if strings.HasPrefix(key, "jobs/") && json.Unmarshal(value, &rec) == nil {
		if st, ok := statusFromWire(rec.Status); ok && st.Terminal() {
			if g.fail {
				return errors.New("disk full")
			}
			if g.hold {
				g.held <- rec.ID
				<-g.release
			}
		}
	}
	return g.Store.Put(key, value)
}

// instantRunner completes every job at once with a stub result.
func instantRunner(ctx context.Context, j *Job, lease Lease) (*core.Result, error) {
	return &core.Result{Problem: "fake", Rounds: 1}, nil
}

// newStoredServer stands up the HTTP front door over a journaled
// scheduler; a nil runJob keeps the real, in-process solver.
func newStoredServer(t *testing.T, workers int, st store.Store,
	runJob func(ctx context.Context, j *Job, lease Lease) (*core.Result, error)) (*httptest.Server, *Scheduler) {
	t.Helper()
	s := newStoredScheduler(t, newFakeFleet(workers), st, runJob)
	srv := httptest.NewServer(NewAPI(s).Handler())
	t.Cleanup(srv.Close)
	return srv, s
}

// inMemory reports whether the scheduler still holds the job itself
// rather than only its summary.
func inMemory(s *Scheduler, id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.jobs[id]
	return ok
}

// waitRetired polls until the job has left memory for the journal.
func waitRetired(t *testing.T, s *Scheduler, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		_, retired := s.retired[id]
		s.mu.Unlock()
		if retired && !inMemory(s, id) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never left memory", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// getBody fetches path and returns the raw body of a 200 response.
func getBody(t *testing.T, srv *httptest.Server, path string) []byte {
	t.Helper()
	r, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer r.Body.Close()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status = %d: %s", path, r.StatusCode, body)
	}
	return body
}

// streamEvents reads a job's whole SSE stream, resuming after
// lastEventID when it is not empty.
func streamEvents(t *testing.T, srv *httptest.Server, id, lastEventID string) []sseEvent {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer r.Body.Close()
	return readSSE(t, r)
}

// TestRetiredJobServesSameView holds a real run's terminal journal
// write to read the job while it is still in memory, then again once
// it has left memory: the two views, result included, are identical.
func TestRetiredJobServesSameView(t *testing.T) {
	st := newGatedStore()
	st.hold = true
	srv, s := newStoredServer(t, 1, st, nil)
	resp, v := postJob(t, srv, tinyJobBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if id := <-st.held; id != v.ID {
		t.Fatalf("held the terminal write of %s, want %s", id, v.ID)
	}
	if !inMemory(s, v.ID) {
		t.Fatal("job left memory before its terminal record was journaled")
	}
	before := getBody(t, srv, "/v1/jobs/"+v.ID)
	close(st.release)
	waitRetired(t, s, v.ID)
	after := getBody(t, srv, "/v1/jobs/"+v.ID)
	if !bytes.Equal(before, after) {
		t.Fatalf("view changed when the job left memory:\nbefore %s\nafter  %s", before, after)
	}
	var got View
	if err := json.Unmarshal(after, &got); err != nil {
		t.Fatal(err)
	}
	if got.Status != "done" || got.Result == nil || got.Result.Rounds != 3 || got.Events != 6 {
		t.Fatalf("retired view = %+v, want done with a 3-round result and 6 events", got)
	}
	if code, c := getErr(t, srv, "/v1/jobs/nope"); code != http.StatusNotFound || c != codeNotFound {
		t.Fatalf("unknown job = %d %q, want 404", code, c)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+v.ID, nil)
	if code, c := doErr(t, req); code != http.StatusConflict || c != codeTerminal {
		t.Fatalf("cancel of a retired job = %d %q, want 409 terminal", code, c)
	}
}

// TestRetiredJobReplaysEvents streams a retired job's log: the full
// queued → running → progress… → done sequence from the journal, and
// only the tail after a Last-Event-ID.
func TestRetiredJobReplaysEvents(t *testing.T) {
	srv, s := newStoredServer(t, 1, store.NewMem(), nil)
	_, v := postJob(t, srv, tinyJobBody)
	waitRetired(t, s, v.ID)

	evs := streamEvents(t, srv, v.ID, "")
	var kinds []string
	for _, e := range evs {
		kinds = append(kinds, e.event)
	}
	want := []string{"queued", "running", "progress", "progress", "progress", "done"}
	if strings.Join(kinds, " ") != strings.Join(want, " ") {
		t.Fatalf("replayed %v, want %v", kinds, want)
	}
	tail := streamEvents(t, srv, v.ID, "2")
	if len(tail) != len(evs)-3 {
		t.Fatalf("resumed after event 2: %d events, want %d", len(tail), len(evs)-3)
	}
	for i, e := range tail {
		if e != evs[3+i] {
			t.Fatalf("resumed event %d = %+v, want %+v", i, e, evs[3+i])
		}
	}
}

// TestListAndHealthCountRetiredJobs: finished jobs that left memory
// still list, filter, paginate and count.
func TestListAndHealthCountRetiredJobs(t *testing.T) {
	started := make(chan string, 8)
	runner, step := blockingRunner(started)
	srv, s := newStoredServer(t, 1, store.NewMem(), runner)
	var ids []string
	for i := 0; i < 5; i++ {
		_, v := postJob(t, srv, tinyJobBody)
		ids = append(ids, v.ID)
	}
	for i := 0; i < 3; i++ {
		<-started
		step()
		waitRetired(t, s, ids[i])
	}
	<-started // the fourth job runs, the fifth waits

	if got, _ := listPage(t, srv, "?status=done"); strings.Join(got, ",") != strings.Join(ids[:3], ",") {
		t.Fatalf("done filter = %v, want %v", got, ids[:3])
	}
	got, next := listPage(t, srv, "?limit=2")
	if strings.Join(got, ",") != strings.Join(ids[:2], ",") || next != ids[1] {
		t.Fatalf("page 1 = %v next %q", got, next)
	}
	got, next = listPage(t, srv, "?limit=2&after="+next)
	if strings.Join(got, ",") != strings.Join(ids[2:4], ",") || next != ids[3] {
		t.Fatalf("page 2 = %v next %q", got, next)
	}
	if got, _ := listPage(t, srv, "?status=queued&after="+ids[0]); len(got) != 1 || got[0] != ids[4] {
		t.Fatalf("queued after %s = %v, want [%s]", ids[0], got, ids[4])
	}
	var h struct {
		Jobs int `json:"jobs"`
	}
	if err := json.Unmarshal(getBody(t, srv, "/healthz"), &h); err != nil || h.Jobs != 5 {
		t.Fatalf("healthz jobs = %d (%v), want 5", h.Jobs, err)
	}
	step()
	<-started
	step()
}

// TestDrainWithRetiredJobs: a drain walks past finished jobs that left
// memory and still cancels the live ones.
func TestDrainWithRetiredJobs(t *testing.T) {
	started := make(chan string, 8)
	runner, step := blockingRunner(started)
	s := newStoredScheduler(t, newFakeFleet(1), store.NewMem(), runner)
	done := submitStored(t, s)
	<-started
	step()
	waitRetired(t, s, done.ID())
	running := submitStored(t, s)
	<-started
	queued := submitStored(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	waitStatus(t, running, Cancelled)
	waitStatus(t, queued, Cancelled)
	if j, ok := s.Get(done.ID()); !ok || j.Status() != Done {
		t.Fatalf("retired job %s lost or changed by the drain", done.ID())
	}
}

// TestRestartReplaysEventLog: a scheduler restarted over the journal
// serves a finished job's full event log, snapshots included.
func TestRestartReplaysEventLog(t *testing.T) {
	st := store.NewMem()
	sA := newStoredScheduler(t, newFakeFleet(1), st, nil)
	j := submitStored(t, sA)
	waitRetired(t, sA, j.ID())
	want, _, _ := j.EventsSince(0)

	sB := newStoredScheduler(t, newFakeFleet(1), st, nil)
	r, ok := sB.Get(j.ID())
	if !ok {
		t.Fatalf("restart lost %s", j.ID())
	}
	got, terminal, _ := r.EventsSince(0)
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !terminal || !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("restarted log (terminal %v):\n%s\nwant\n%s", terminal, gotJSON, wantJSON)
	}
	if len(got) != 5 || got[2].Snapshot == nil || got[3].Snapshot == nil { // tinyCfg runs 2 rounds
		t.Fatalf("restarted log = %s, want queued, running, 2 progress, done", gotJSON)
	}
	if r.Result() == nil || r.Result().BestCost != j.Result().BestCost {
		t.Fatalf("restarted result %+v, want best %v", r.Result(), j.Result().BestCost)
	}
}

// TestFailedTerminalWriteKeepsJob: when the terminal record cannot be
// journaled, the job stays in memory and keeps serving its result.
func TestFailedTerminalWriteKeepsJob(t *testing.T) {
	st := newGatedStore()
	st.fail = true
	s := newStoredScheduler(t, newFakeFleet(1), st, instantRunner)
	j := submitStored(t, s)
	waitStatus(t, j, Done)
	// Drain waits for the runner, which settles the job after its
	// terminal transition.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !inMemory(s, j.ID()) {
		t.Fatal("job left memory although its terminal record was never journaled")
	}
	if got, ok := s.Get(j.ID()); !ok || got != j || got.Result() == nil {
		t.Fatalf("Get after a failed terminal write = %p (result %v), want the in-memory job %p", got, got.Result(), j)
	}
}

// TestFinishedJobsLeaveMemory: after N finished jobs the scheduler
// holds no *Job for any of them, only their summaries.
func TestFinishedJobsLeaveMemory(t *testing.T) {
	s := newStoredScheduler(t, newFakeFleet(1), store.NewMem(), instantRunner)
	const n = 8
	var ids []string
	for i := 0; i < n; i++ {
		j := submitStored(t, s)
		ids = append(ids, j.ID())
		waitStatus(t, j, Done)
	}
	for _, id := range ids {
		waitRetired(t, s, id)
	}
	s.mu.Lock()
	held, summaries := len(s.jobs), len(s.retired)
	s.mu.Unlock()
	if held != 0 || summaries != n {
		t.Fatalf("scheduler holds %d jobs and %d summaries after %d finished, want 0 and %d", held, summaries, n, n)
	}
	for i, v := range s.Jobs() {
		if v.ID != ids[i] || v.Status != "done" {
			t.Fatalf("listed %+v at %d, want %s done", v, i, ids[i])
		}
	}
}

// TestRetiredJobWithUnreadableRecord: should a retired job's journal
// record become unreadable, the job is still found, rebuilt from its
// summary without the result.
func TestRetiredJobWithUnreadableRecord(t *testing.T) {
	st := store.NewMem()
	s := newStoredScheduler(t, newFakeFleet(1), st, instantRunner)
	j := submitStored(t, s)
	waitRetired(t, s, j.ID())
	if err := st.Delete(jobKey(j.ID())); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(j.ID())
	if !ok {
		t.Fatalf("%s not found once its record was gone", j.ID())
	}
	want := j.View(false)
	if v := got.View(false); v.Status != "done" || !v.Created.Equal(want.Created) || v.Finished == nil || !v.Finished.Equal(*want.Finished) || got.Result() != nil {
		t.Fatalf("rebuilt %+v (result %v), want the summary %+v", v, got.Result(), want)
	}
}
