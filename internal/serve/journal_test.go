package serve

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"pts/internal/cluster"
	"pts/internal/core"
	"pts/internal/cost"
	"pts/internal/store"
)

// newStoredScheduler builds a scheduler over st with the runner seam
// installed BEFORE the queue is pumped — recovery enqueues jobs at
// construction, so the production pattern (New, wire, then Notify)
// must hold in tests too or a recovered job races onto the real
// solver.
func newStoredScheduler(t *testing.T, fleet *fakeFleet, st store.Store,
	runJob func(ctx context.Context, j *Job, lease Lease) (*core.Result, error)) *Scheduler {
	t.Helper()
	s, err := New(Config{
		Fleet:      fleet,
		Resolve:    testResolve,
		Cluster:    cluster.Homogeneous(4, 1),
		QueueDepth: 4,
		Store:      st,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	drainOnCleanup(t, s)
	fleet.mu.Lock()
	fleet.notify = s.Notify
	fleet.mu.Unlock()
	if runJob != nil {
		s.runJob = runJob
	}
	s.Notify()
	return s
}

// submitStored files one tiny job and returns it.
func submitStored(t *testing.T, s *Scheduler) *Job {
	t.Helper()
	j, err := s.Submit(Request{
		Spec:    core.ProblemSpec{Kind: "placement", Circuit: "highway"},
		Workers: 1,
		Cfg:     tinyCfg(),
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return j
}

// TestSchedulerRestartRecoversJobs is the daemon's crash-only
// contract at the scheduler level: a new scheduler over the old
// scheduler's store re-serves terminal results, re-admits queued and
// mid-run jobs in their original order, and continues the id
// sequence.
func TestSchedulerRestartRecoversJobs(t *testing.T) {
	st := store.NewMem()
	started := make(chan string, 8)
	runner, step := blockingRunner(started)
	sA := newStoredScheduler(t, newFakeFleet(1), st, runner)

	j1 := submitStored(t, sA) // runs, held by the blocking runner
	<-started
	j2 := submitStored(t, sA) // queues behind it
	step()                    // j1 completes
	waitStatus(t, j1, Done)
	<-started // j2 admitted, now held mid-run
	j3 := submitStored(t, sA)
	if got := j3.Status(); got != Queued {
		t.Fatalf("j3 status = %v, want queued", got)
	}

	// j3's record as an older daemon wrote it: its config still carries
	// the placement settings Config has since handed to the problem.
	legacyConfig(t, st, j3.ID())

	// Crash: no drain, no cleanup — just a second scheduler over the
	// same store, as a restarted daemon would build.
	started2 := make(chan string, 8)
	runner2, step2 := blockingRunner(started2)
	sB := newStoredScheduler(t, newFakeFleet(1), st, runner2)

	// The done job survives with its result.
	r1, ok := sB.Get(j1.ID())
	if !ok {
		t.Fatalf("restart lost %s", j1.ID())
	}
	if r1.Status() != Done || r1.Result() == nil || r1.Result().Problem != "fake" {
		t.Fatalf("recovered %s = %v result %+v, want done with result", j1.ID(), r1.Status(), r1.Result())
	}
	// The submission's config survives the journal round-trip.
	if cfg := r1.Request().Cfg; cfg.GlobalIters != tinyCfg().GlobalIters || cfg.Seed != tinyCfg().Seed {
		t.Fatalf("recovered config mutated: %+v", cfg)
	}

	// The mid-run job and the queued job re-enter the queue in order:
	// j2 (was running) is re-admitted first, j3 waits behind it.
	if id := <-started2; id != j2.ID() {
		t.Fatalf("first re-admitted job = %s, want %s", id, j2.ID())
	}
	r3, ok := sB.Get(j3.ID())
	if !ok || r3.Status() != Queued {
		t.Fatalf("recovered %s status = %v, want queued", j3.ID(), r3.Status())
	}
	if cfg := r3.Request().Cfg; cfg.GlobalIters != tinyCfg().GlobalIters || cfg.Seed != tinyCfg().Seed {
		t.Fatalf("recovered legacy config mutated: %+v", cfg)
	}
	step2()
	waitStatusID(t, sB, j2.ID(), Done)
	if id := <-started2; id != j3.ID() {
		t.Fatalf("second re-admitted job = %s, want %s", id, j3.ID())
	}
	step2()
	waitStatusID(t, sB, j3.ID(), Done)

	// New submissions continue the id sequence past the recovered ones.
	j4 := submitStored(t, sB)
	if j4.ID() == j1.ID() || j4.ID() == j2.ID() || j4.ID() == j3.ID() {
		t.Fatalf("restart reused job id %s", j4.ID())
	}
	if jobSeq(j4.ID()) <= jobSeq(j3.ID()) {
		t.Fatalf("id sequence went backwards: %s after %s", j4.ID(), j3.ID())
	}
	<-started2
	step2()

	// Unblock the abandoned first scheduler so its runner goroutine
	// does not outlive the test deadlocked on the step channel.
	_ = sA.Cancel(j2.ID())
}

// legacyConfig rewrites job id's journal record into the form older
// daemons wrote, whose config also held Cost, Utilization and
// RefreshEvery.
func legacyConfig(t *testing.T, st store.Store, id string) {
	t.Helper()
	b, ok, err := st.Get(jobKey(id))
	if err != nil || !ok {
		t.Fatalf("no record for %s (ok=%v, err=%v)", id, ok, err)
	}
	var rec map[string]any
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	cfg := rec["config"].(map[string]any)
	cfg["Cost"] = cost.DefaultConfig()
	cfg["Utilization"] = 0.9
	cfg["RefreshEvery"] = 64
	if b, err = json.Marshal(rec); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(jobKey(id), b); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerRestartDropsRejectedJobs: a submission refused with
// queue-full is never journaled, so a restart does not resurrect it.
func TestSchedulerRestartDropsRejectedJobs(t *testing.T) {
	st := store.NewMem()
	started := make(chan string, 8)
	runner, step := blockingRunner(started)
	fleet := newFakeFleet(1)
	sA, err := New(Config{
		Fleet:      fleet,
		Resolve:    testResolve,
		Cluster:    cluster.Homogeneous(4, 1),
		QueueDepth: 1,
		Store:      st,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	drainOnCleanup(t, sA)
	sA.runJob = runner

	j1 := submitStored(t, sA) // running
	<-started
	j2 := submitStored(t, sA) // fills the depth-1 queue
	if _, err := sA.Submit(Request{
		Spec:    core.ProblemSpec{Kind: "placement", Circuit: "highway"},
		Workers: 1,
		Cfg:     tinyCfg(),
	}); err == nil {
		t.Fatal("overflow submission accepted")
	}

	keys, err := st.List("jobs/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 {
		t.Fatalf("journal holds %d jobs %v, want 2", len(keys), keys)
	}

	sB := newStoredScheduler(t, newFakeFleet(1), st, func(ctx context.Context, j *Job, lease Lease) (*core.Result, error) {
		return &core.Result{Problem: "fake", Rounds: 1}, nil
	})
	if got := len(sB.Jobs()); got != 2 {
		t.Fatalf("restart recovered %d jobs, want 2 (the rejected one must stay gone)", got)
	}
	waitStatusID(t, sB, j1.ID(), Done)
	waitStatusID(t, sB, j2.ID(), Done)

	step()
	_ = sA
}

// TestSchedulerCancelledJobNotResumed: a job cancelled before the
// crash stays cancelled after the restart instead of re-running.
func TestSchedulerCancelledJobNotResumed(t *testing.T) {
	st := store.NewMem()
	started := make(chan string, 8)
	runner, step := blockingRunner(started)
	sA := newStoredScheduler(t, newFakeFleet(1), st, runner)

	j1 := submitStored(t, sA)
	<-started
	j2 := submitStored(t, sA)
	if err := sA.Cancel(j2.ID()); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	waitStatus(t, j2, Cancelled)
	step()
	waitStatus(t, j1, Done)
	drain(t, sA) // j1's runner journals it after the status flips

	sB := newStoredScheduler(t, newFakeFleet(1), st, func(ctx context.Context, j *Job, lease Lease) (*core.Result, error) {
		t.Errorf("recovered scheduler ran %s, which was terminal", j.ID())
		return &core.Result{Problem: "fake"}, nil
	})
	r2, ok := sB.Get(j2.ID())
	if !ok || r2.Status() != Cancelled {
		t.Fatalf("recovered %s = %v, want cancelled", j2.ID(), r2.Status())
	}
	if sB.Queued() != 0 {
		t.Fatalf("restart queued %d jobs, want none", sB.Queued())
	}
}

// holdFirstPut wraps a store to hold the first Put of one key: it
// closes held once that write waits and lets it through when release
// is closed.
type holdFirstPut struct {
	store.Store
	key     string
	once    sync.Once
	held    chan struct{}
	release chan struct{}
}

func (h *holdFirstPut) Put(key string, value []byte) error {
	if key == h.key {
		first := false
		h.once.Do(func() { first = true })
		if first {
			close(h.held)
			<-h.release
		}
	}
	return h.Store.Put(key, value)
}

// TestSchedulerCancelDuringSubmitWriteStaysCancelled: a queued job
// cancelled while Submit's journal write is still on its way to the
// store stays cancelled after a restart. The late queued record must
// not land over the cancelled one and resurrect the job.
func TestSchedulerCancelDuringSubmitWriteStaysCancelled(t *testing.T) {
	st := &holdFirstPut{Store: store.NewMem(), key: jobKey("j2"),
		held: make(chan struct{}), release: make(chan struct{})}
	started := make(chan string, 8)
	runner, _ := blockingRunner(started)
	sA := newStoredScheduler(t, newFakeFleet(1), st, runner)

	submitStored(t, sA) // j1 runs, held by the blocking runner
	<-started
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		submitStored(t, sA) // j2 queues; its journal write is held
	}()
	<-st.held
	cancelled := make(chan error, 1)
	go func() { cancelled <- sA.Cancel("j2") }()
	waitStatusID(t, sA, "j2", Cancelled)
	close(st.release)
	if err := <-cancelled; err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	<-submitted

	sB := newStoredScheduler(t, newFakeFleet(1), st, func(ctx context.Context, j *Job, lease Lease) (*core.Result, error) {
		if j.ID() == "j2" {
			t.Errorf("recovered scheduler ran %s, which was cancelled", j.ID())
		}
		return &core.Result{Problem: "fake", Rounds: 1}, nil
	})
	r2, ok := sB.Get("j2")
	if !ok || r2.Status() != Cancelled {
		t.Fatalf("recovered j2 = %v, want cancelled", r2.Status())
	}
	waitStatusID(t, sB, "j1", Done)
	if sB.Queued() != 0 {
		t.Fatalf("restart left %d jobs queued, want none", sB.Queued())
	}
}

// waitStatusID polls a job by id until it reaches want.
func waitStatusID(t *testing.T, s *Scheduler, id string, want Status) {
	t.Helper()
	j, ok := s.Get(id)
	if !ok {
		t.Fatalf("no job %s", id)
	}
	waitStatus(t, j, want)
}
