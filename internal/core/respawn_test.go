package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"pts/internal/cluster"
	"pts/internal/pvm"
	"pts/internal/pvm/nettrans"
	"pts/internal/qap"
	"pts/internal/rng"
	"pts/internal/tabu"
)

// stubEnv is a minimal pvm.Env that records sends and replays a
// scripted inbox, for driving the clwSet and master recovery state
// machines directly (task loss cannot happen on the in-process
// transports, so the lifecycle is unit-tested here and
// integration-tested over nettrans below).
type stubEnv struct {
	sent    []stubSend
	watched []pvm.TaskID
	// inbox is what Recv returns, in order; each message moves the
	// clock to its At. spawned counts SpawnSpec calls, which mint task
	// IDs 100, 101, ...
	inbox   []stubRecv
	now     float64
	spawned int
}

type stubSend struct {
	To   pvm.TaskID
	Tag  pvm.Tag
	Data any
}

type stubRecv struct {
	At float64
	pvm.Message
}

func (s *stubEnv) Self() pvm.TaskID         { return 1 }
func (s *stubEnv) Name() string             { return "stub" }
func (s *stubEnv) MachineIndex() int        { return 0 }
func (s *stubEnv) Now() float64             { return s.now }
func (s *stubEnv) Rand() *rng.SplitMix64    { return rng.NewSplitMix64(1) }
func (s *stubEnv) Cancelled() bool          { return false }
func (s *stubEnv) Work(seconds float64)     {}
func (s *stubEnv) NotifyExit(id pvm.TaskID) { s.watched = append(s.watched, id) }
func (s *stubEnv) Send(to pvm.TaskID, tag pvm.Tag, data any) {
	s.sent = append(s.sent, stubSend{To: to, Tag: tag, Data: data})
}
func (s *stubEnv) Recv(tags ...pvm.Tag) pvm.Message {
	if len(s.inbox) == 0 {
		panic("stub: Recv past the end of the script")
	}
	r := s.inbox[0]
	if !slices.Contains(tags, r.Tag) {
		panic(fmt.Sprintf("stub: scripted tag %d is not among the awaited %v", r.Tag, tags))
	}
	s.inbox, s.now = s.inbox[1:], r.At
	return r.Message
}
func (s *stubEnv) TryRecv(tags ...pvm.Tag) (pvm.Message, bool) { return pvm.Message{}, false }
func (s *stubEnv) Spawn(name string, machine int, fn pvm.TaskFunc) pvm.TaskID {
	panic("stub: Spawn")
}
func (s *stubEnv) SpawnSpec(name string, machine int, spec pvm.Spec) pvm.TaskID {
	s.spawned++
	return pvm.TaskID(99 + s.spawned)
}

func (s *stubEnv) sends(tag pvm.Tag) []stubSend {
	var out []stubSend
	for _, m := range s.sent {
		if m.Tag == tag {
			out = append(out, m)
		}
	}
	return out
}

// stubCLWSet builds a live 3-worker set over [0, n) like newCLWSet
// would, without spawning anything.
func stubCLWSet(env pvm.Env, n int32, master pvm.TaskID) *clwSet {
	cfg := quickCfg()
	cfg.CLWs = 3
	cfg.Adaptive = true
	cs := &clwSet{
		cfg:     cfg,
		n:       n,
		widx:    0,
		master:  master,
		respawn: true,
		ids:     []pvm.TaskID{10, 11, 12},
		byID:    map[pvm.TaskID]int{10: 0, 11: 1, 12: 2},
		live:    []bool{true, true, true},
		alive:   3,
		pend:    make(map[int]pvm.TaskID),
	}
	cs.track = seededTracker(env, n, 3, func(int) int { return 0 })
	cs.rng = cs.track.Partition()
	return cs
}

// assertExactPartition checks that the live workers' ranges tile
// [0, n) exactly: no gap, no overlap, no duplicate element ownership.
func assertExactPartition(t *testing.T, cs *clwSet) {
	t.Helper()
	type rng struct {
		j      int
		lo, hi int32
	}
	var rs []rng
	for j := range cs.ids {
		if cs.live[j] && cs.rng[j][1] > cs.rng[j][0] {
			rs = append(rs, rng{j, cs.rng[j][0], cs.rng[j][1]})
		}
	}
	sort.Slice(rs, func(a, b int) bool { return rs[a].lo < rs[b].lo })
	at := int32(0)
	for _, r := range rs {
		if r.lo != at {
			t.Fatalf("element ownership broken: worker %d starts at %d, want %d (ranges %v, live %v)",
				r.j, r.lo, at, cs.rng, cs.live)
		}
		at = r.hi
	}
	if at != cs.n {
		t.Fatalf("element ownership broken: live ranges end at %d, want %d (ranges %v, live %v)",
			at, cs.n, cs.rng, cs.live)
	}
}

// TestRespawnedCLWInheritsExactPartition is the recovery regression
// test: after a CLW loss, a replacement adoption and the barrier
// attachment, the live workers' element ranges must partition the
// space exactly — no element owned twice (which would double-count
// moves) and none orphaned.
func TestRespawnedCLWInheritsExactPartition(t *testing.T) {
	env := &stubEnv{}
	const master = pvm.TaskID(1)
	cs := stubCLWSet(env, 30, master)
	var ws WorkerStats
	assertExactPartition(t, cs)

	// CLW 1's host dies: written off, range folds at the next barrier,
	// and a replacement is requested from the master.
	cs.onExit(env, 11, &ws)
	if ws.WorkersLost != 1 {
		t.Fatalf("WorkersLost = %d, want 1", ws.WorkersLost)
	}
	req := env.sends(TagRespawn)
	if len(req) != 1 || req[0].To != master || req[0].Data.(respawnMsg).CLWIdx != 1 {
		t.Fatalf("respawn request = %+v, want one TagRespawn{CLWIdx:1} to the master", req)
	}
	// The fold: rebalance must adopt (membership changed) and the
	// survivors must again own the space exactly.
	if !cs.rebalance(env) {
		t.Fatal("rebalance after a loss was not adopted")
	}
	assertExactPartition(t, cs)
	if cs.alive != 2 {
		t.Fatalf("alive = %d, want 2", cs.alive)
	}

	// The master's ack parks the replacement; the next barrier attaches
	// it with a range carved back out of the survivors.
	cs.onAck(env, respawnAckMsg{CLWIdx: 1, ID: 42})
	if cs.pend[1] != 42 {
		t.Fatalf("pending = %v, want slot 1 -> 42", cs.pend)
	}
	newly := cs.revivePending()
	if len(newly) != 1 || newly[0] != 1 {
		t.Fatalf("revived = %v, want [1]", newly)
	}
	if !cs.rebalance(env) {
		t.Fatal("rebalance after a revival was not adopted")
	}
	perm := make([]int32, 30)
	cs.attach(env, newly, perm, make([]uint64, len(cs.ids)))
	if cs.alive != 3 || !cs.live[1] || cs.ids[1] != 42 {
		t.Fatalf("replacement not attached: alive %d, live %v, ids %v", cs.alive, cs.live, cs.ids)
	}
	assertExactPartition(t, cs)

	// The replacement was seeded exactly once, with its adopted range
	// and a positive share-scaled trial budget.
	var seeded []initMsg
	for _, m := range env.sends(TagInit) {
		if m.To == 42 {
			seeded = append(seeded, m.Data.(initMsg))
		}
	}
	if len(seeded) != 1 {
		t.Fatalf("replacement seeded %d times, want 1", len(seeded))
	}
	if got := seeded[0]; got.RangeLo != cs.rng[1][0] || got.RangeHi != cs.rng[1][1] || got.Trials < 1 {
		t.Fatalf("replacement seeded with %+v, want range %v and a positive budget", got, cs.rng[1])
	}

	// A surplus ack for an already-live slot is retired unseeded.
	cs.onAck(env, respawnAckMsg{CLWIdx: 1, ID: 77})
	var stopped bool
	for _, m := range env.sends(TagStop) {
		if m.To == 77 {
			stopped = true
		}
	}
	if !stopped {
		t.Fatal("surplus replacement was not retired with TagStop")
	}
	if _, ok := cs.byID[77]; ok {
		t.Fatal("surplus replacement leaked into the id map")
	}
}

// TestCheckpointRoundTripAdoptsSurvivors pins the checkpoint format: a
// resumed TSW rebuilt from buildCheckpoint's output re-attaches live
// survivors (fresh TagInit + re-armed watch), re-adopts pending
// replacements, and re-requests respawns for dead slots — and the
// restored tabu/frequency memory matches the original.
func TestCheckpointRoundTripAdoptsSurvivors(t *testing.T) {
	env := &stubEnv{}
	const master = pvm.TaskID(1)
	cs := stubCLWSet(env, 30, master)
	var ws WorkerStats
	cs.onExit(env, 12, &ws)                         // slot 2 dead, respawn requested
	cs.onAck(env, respawnAckMsg{CLWIdx: 2, ID: 55}) // parked pending

	prob, err := (&qapTestProblem{ins: qap.Random(30, 5)}).Initial(7)
	if err != nil {
		t.Fatal(err)
	}
	list := tabu.NewList()
	list.Add(tabu.Attr(1, 2), 90)
	freq := tabu.NewFrequency(30)
	freq.BumpSwap(3, 4)
	var stats WorkerStats
	stats.LocalIters = 123
	ck := buildCheckpoint(0, prob, list, freq, rng.NewSplitMix64(9), 80, stats, prob.Cost(), prob.Snapshot(), 5, 25, 0, cs)

	if len(ck.CLWs) != 3 {
		t.Fatalf("checkpoint slots = %d, want 3", len(ck.CLWs))
	}
	if ck.CLWs[0].State != clwSlotLive || ck.CLWs[1].State != clwSlotLive {
		t.Fatalf("slots 0/1 not live in checkpoint: %+v", ck.CLWs)
	}
	if ck.CLWs[2].State != clwSlotPending || ck.CLWs[2].ID != 55 {
		t.Fatalf("slot 2 not pending 55 in checkpoint: %+v", ck.CLWs[2])
	}

	env2 := &stubEnv{}
	cfg := cs.cfg
	cs2 := adoptCLWSet(env2, cfg, &ck, master)
	if cs2.alive != 2 || !cs2.live[0] || !cs2.live[1] || cs2.live[2] {
		t.Fatalf("adopted liveness wrong: alive %d, live %v", cs2.alive, cs2.live)
	}
	if cs2.pend[2] != 55 {
		t.Fatalf("pending replacement not re-adopted: %v", cs2.pend)
	}
	// Survivors re-parented (TagInit) and re-watched; the pending one
	// re-watched only.
	inits := env2.sends(TagInit)
	if len(inits) != 2 {
		t.Fatalf("adoption sent %d TagInits, want 2 (one per survivor)", len(inits))
	}
	watched := map[pvm.TaskID]bool{}
	for _, id := range env2.watched {
		watched[id] = true
	}
	for _, id := range []pvm.TaskID{10, 11, 55} {
		if !watched[id] {
			t.Fatalf("task %d not re-watched after adoption (watched %v)", id, env2.watched)
		}
	}
	// Attach the pending replacement and re-check exact ownership. The
	// rebalance may legitimately decline here: the replacement inherits
	// the dead worker's never-folded range, which already tiles the
	// space exactly.
	newly := cs2.revivePending()
	cs2.rebalance(env2)
	cs2.attach(env2, newly, ck.Perm, make([]uint64, len(cs2.ids)))
	assertExactPartition(t, cs2)

	// Memory round-trip.
	list2 := tabu.NewList()
	list2.Import(ck.Tabu, ck.Iter)
	if !list2.IsTabu(tabu.Attr(1, 2), 85) {
		t.Error("tabu entry lost in the checkpoint round-trip")
	}
	freq2 := tabu.NewFrequency(30)
	freq2.Import(ck.Freq)
	if freq2.Count(3) != 1 || freq2.Count(4) != 1 || freq2.Total() != 2 {
		t.Error("frequency memory lost in the checkpoint round-trip")
	}
	if ck.Stats.LocalIters != 123 {
		t.Error("counters lost in the checkpoint round-trip")
	}
}

// TestMasterCreditsReportToItsSlot drives masterRun through a TSW
// that reports, is lost and is resurrected within one collection. Its
// report must be credited to its own slot — the tracker sees TSW 1 as
// the faster one — and the successor must take over that slot's
// counters, so the next round's Snapshot.Stats counts every TSW once.
func TestMasterCreditsReportToItsSlot(t *testing.T) {
	prob := &qapTestProblem{ins: qap.Random(20, 3)}
	cfg := quickCfg()
	cfg.TSWs, cfg.GlobalIters = 2, 2
	cfg.Adaptive, cfg.HalfSync = true, false
	var snaps []Snapshot
	cfg.Progress = func(s Snapshot) { snaps = append(snaps, s) }

	// masterRun spawns TSWs 0 and 1 as tasks 100 and 101; TSW 1's
	// successor is task 102.
	best := func(iters int64) bestMsg {
		return bestMsg{Cost: 50, Stats: WorkerStats{LocalIters: iters}}
	}
	env := &stubEnv{inbox: []stubRecv{
		{1, pvm.Message{From: 101, Tag: TagBest, Data: best(30)}}, // TSW 1: 30 iterations in 1 s
		{1.5, pvm.Message{From: 101, Tag: pvm.TagExit}},           // then lost, resurrected as 102
		{2, pvm.Message{From: 100, Tag: TagBest, Data: best(10)}}, // TSW 0: 10 iterations in 2 s
		{3, pvm.Message{From: 100, Tag: TagBest, Data: best(20)}},
		{4, pvm.Message{From: 102, Tag: TagBest, Data: best(60)}},
		{5, pvm.Message{From: 100, Tag: TagStats, Data: WorkerStats{}}},
		{5, pvm.Message{From: 102, Tag: TagStats, Data: WorkerStats{}}},
	}}
	init := make([]int32, prob.Size())
	for i := range init {
		init[i] = int32(i)
	}
	var out masterState
	masterRun(env, prob, cfg, init, 100, nil, &out)

	if len(env.inbox) != 0 || env.spawned != 3 {
		t.Fatalf("master left %d scripted messages unread after %d spawns, want 0 after 3", len(env.inbox), env.spawned)
	}
	if len(snaps) != 2 {
		t.Fatalf("got %d snapshots, want 2", len(snaps))
	}
	if sh := snaps[0].Shares; sh[1] <= sh[0] {
		t.Errorf("round 1 shares %v: TSW 1's report (30 iterations in 1 s) was not credited to slot 1", sh)
	}
	if got := snaps[1].Stats.LocalIters; got != 20+60 {
		t.Errorf("round 2 Stats.LocalIters = %d, want %d (one entry per TSW)", got, 20+60)
	}
}

// TestRespawnRestoresParallelismOverNettrans is the end-to-end
// recovery gate at the engine level: an adaptive distributed run
// (loopback TCP, one master + three worker processes emulated as
// daemon goroutines) loses one CLW-hosting worker mid-run and must
// complete un-Interrupted over the full budget with the loss both
// counted and repaired: WorkersLost == WorkersRespawned == 1.
func TestRespawnRestoresParallelismOverNettrans(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	res := runKillWorkerScenario(t, 2, false)
	if res.Stats.WorkersLost != 1 {
		t.Errorf("WorkersLost = %d, want 1", res.Stats.WorkersLost)
	}
	if res.Stats.WorkersRespawned != 1 {
		t.Errorf("WorkersRespawned = %d, want 1", res.Stats.WorkersRespawned)
	}
}

// TestFoldOnlyModeDoesNotRespawn pins WithRespawn(false): the PR-4
// behavior — the loss degrades the search (fold into survivors) and
// nothing is respawned.
func TestFoldOnlyModeDoesNotRespawn(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	res := runKillWorkerScenario(t, 2, true)
	if res.Stats.WorkersLost != 1 {
		t.Errorf("WorkersLost = %d, want 1", res.Stats.WorkersLost)
	}
	if res.Stats.WorkersRespawned != 0 {
		t.Errorf("WorkersRespawned = %d, want 0 with respawn disabled", res.Stats.WorkersRespawned)
	}
}

// runKillWorkerScenario runs 1 TSW x 3 CLWs over a loopback nettrans
// cluster (master + 3 single-slot workers), kills the worker hosting
// one CLW once round killAt is reported, and returns the master's
// result. The run must complete un-Interrupted either way.
func runKillWorkerScenario(t *testing.T, killAt int, disableRespawn bool) *Result {
	t.Helper()
	ctx := context.Background()
	newProblem := func() Problem { return &qapTestProblem{ins: qap.Random(30, 11)} }

	master, addr := listenLoopback(t, 3)
	defer master.Close()

	// Join order fixes the slot ring: with 1 TSW x 3 CLWs over
	// (master + 3 workers), the TSW lands on worker 1 and CLWs on
	// workers 2, 3 and the master process — so killing the third
	// worker kills exactly one CLW.
	w1 := startWorkerDaemon(t, ctx, newProblem(), addr, "w1", 4)
	waitWorkers(t, master, 1)
	w2 := startWorkerDaemon(t, ctx, newProblem(), addr, "w2", 1)
	waitWorkers(t, master, 2)
	doomedCtx, killDoomed := context.WithCancel(ctx)
	defer killDoomed()
	w3 := startWorkerDaemon(t, doomedCtx, newProblem(), addr, "w3", 1)
	waitWorkers(t, master, 3)

	cfg := quickCfg()
	cfg.TSWs, cfg.CLWs = 1, 3
	cfg.GlobalIters, cfg.LocalIters = 8, 15
	cfg.HalfSync = false
	cfg.Adaptive = true
	cfg.DisableRespawn = disableRespawn
	cfg.WorkScale = 2 // stretch rounds so the kill lands mid-run
	cfg.Transport = master
	killed := false
	cfg.Progress = func(s Snapshot) {
		if s.Round == killAt && !killed {
			killed = true
			killDoomed()
		}
	}

	res, err := RunProblem(ctx, newProblem(), clusterForNet(), cfg, Real)
	if err != nil {
		t.Fatalf("adaptive run with a killed worker: %v", err)
	}
	if res.Interrupted {
		t.Fatal("run reported Interrupted; recovery must keep it complete")
	}
	if res.Rounds != cfg.GlobalIters {
		t.Errorf("completed %d rounds, want the full %d", res.Rounds, cfg.GlobalIters)
	}
	for name, ch := range map[string]chan error{"w1": w1, "w2": w2} {
		select {
		case err := <-ch:
			if err != nil {
				t.Errorf("worker %s: %v", name, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("worker %s never finished", name)
		}
	}
	select {
	case <-w3: // killed worker errors out; that is its expected outcome
	case <-time.After(30 * time.Second):
		t.Fatal("doomed worker never returned")
	}
	return res
}

// TestTSWLossResurrectsFromCheckpoint is the second recovery gate: the
// worker hosting the TSW itself is killed mid-run. The master must
// resurrect the TSW from its piggybacked checkpoint, re-attach the
// surviving CLWs, and still complete the full budget un-Interrupted.
func TestTSWLossResurrectsFromCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	ctx := context.Background()
	newProblem := func() Problem { return &qapTestProblem{ins: qap.Random(30, 11)} }

	master, addr := listenLoopback(t, 3)
	defer master.Close()

	// Worker 1 hosts the TSW (slot 1); killing it tests the
	// checkpoint-resurrection path with all three CLWs surviving.
	doomedCtx, killDoomed := context.WithCancel(ctx)
	defer killDoomed()
	w1 := startWorkerDaemon(t, doomedCtx, newProblem(), addr, "w1", 1)
	waitWorkers(t, master, 1)
	w2 := startWorkerDaemon(t, ctx, newProblem(), addr, "w2", 1)
	waitWorkers(t, master, 2)
	w3 := startWorkerDaemon(t, ctx, newProblem(), addr, "w3", 1)
	waitWorkers(t, master, 3)

	cfg := quickCfg()
	cfg.TSWs, cfg.CLWs = 1, 3
	cfg.GlobalIters, cfg.LocalIters = 8, 15
	cfg.HalfSync = false
	cfg.Adaptive = true
	cfg.WorkScale = 2
	cfg.Transport = master
	killed := false
	cfg.Progress = func(s Snapshot) {
		if s.Round == 2 && !killed {
			killed = true
			killDoomed()
		}
	}

	res, err := RunProblem(ctx, newProblem(), clusterForNet(), cfg, Real)
	if err != nil {
		t.Fatalf("adaptive run with a killed TSW host: %v", err)
	}
	if res.Interrupted {
		t.Fatal("run reported Interrupted; the TSW must be resurrected from its checkpoint")
	}
	if res.Rounds != cfg.GlobalIters {
		t.Errorf("completed %d rounds, want the full %d", res.Rounds, cfg.GlobalIters)
	}
	if res.Stats.WorkersLost < 1 {
		t.Errorf("WorkersLost = %d, want >= 1 (the TSW)", res.Stats.WorkersLost)
	}
	if res.Stats.WorkersRespawned < 1 {
		t.Errorf("WorkersRespawned = %d, want >= 1 (the resurrected TSW)", res.Stats.WorkersRespawned)
	}
	if res.BestCost > res.InitialCost {
		t.Errorf("no improvement: %v -> %v", res.InitialCost, res.BestCost)
	}
	for name, ch := range map[string]chan error{"w2": w2, "w3": w3} {
		select {
		case err := <-ch:
			if err != nil {
				t.Errorf("worker %s: %v", name, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("worker %s never finished", name)
		}
	}
	select {
	case <-w1:
	case <-time.After(30 * time.Second):
		t.Fatal("doomed worker never returned")
	}
}

// --- loopback-cluster helpers -----------------------------------------

func listenLoopback(t *testing.T, workers int) (*nettrans.Master, string) {
	t.Helper()
	m, err := nettrans.Listen(nettrans.MasterConfig{Addr: "127.0.0.1:0", Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return m, m.Addr()
}

func startWorkerDaemon(t *testing.T, ctx context.Context, prob Problem, addr, name string, speed float64) chan error {
	t.Helper()
	ch := make(chan error, 1)
	go func() {
		ch <- ServeWorker(ctx, prob, WorkerOptions{
			Addr: addr, Name: name, Speed: speed, Jobs: 1,
		}, nil)
	}()
	return ch
}

func waitWorkers(t *testing.T, m *nettrans.Master, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(m.Nodes()) < want {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers joined", len(m.Nodes()), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func clusterForNet() cluster.Cluster { return cluster.Homogeneous(4, 1) }
