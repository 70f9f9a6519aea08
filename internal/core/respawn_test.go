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
	// IDs 100, 101, ... recvAt records len(sent) at each Recv call.
	inbox   []stubRecv
	now     float64
	spawned int
	recvAt  []int
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
	s.recvAt = append(s.recvAt, len(s.sent))
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

	// The replacement was seeded exactly once, with its range from the
	// barrier's partition and a positive share-scaled trial budget.
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
}

// TestCheckpointRoundTripSpawnsFreshSet pins the checkpoint format: a
// resumed TSW's CLW set, rebuilt by newCLWSet from buildCheckpoint's
// slots, spawns a fresh watched worker over each live slot's range
// (none of the old task IDs is reused), asks the master to replace
// the dead slot, and checkpoints the same ranges and trial budgets —
// and the restored tabu/frequency memory matches the original.
func TestCheckpointRoundTripSpawnsFreshSet(t *testing.T) {
	env := &stubEnv{}
	const master = pvm.TaskID(1)
	cs := stubCLWSet(env, 30, master)
	var ws WorkerStats
	cs.onExit(env, 12, &ws)                         // slot 2 dead, respawn requested
	cs.onAck(env, respawnAckMsg{CLWIdx: 2, ID: 55}) // parked, not seeded

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
	if ck.CLWs[0].State != clwSlotLive || ck.CLWs[0].ID != 10 || ck.CLWs[1].State != clwSlotLive || ck.CLWs[1].ID != 11 {
		t.Fatalf("slots 0/1 not live 10/11 in checkpoint: %+v", ck.CLWs)
	}
	if ck.CLWs[2].State != clwSlotDead {
		t.Fatalf("slot 2 with an unseeded replacement not dead in checkpoint: %+v", ck.CLWs[2])
	}

	env2 := &stubEnv{}
	cs2 := newCLWSet(env2, &qapTestProblem{ins: qap.Random(30, 5)}, cs.cfg, ck.Perm, ck.WorkerIdx, master, ck.CLWs)
	if cs2.alive != 2 || !cs2.live[0] || !cs2.live[1] || cs2.live[2] || len(cs2.pend) != 0 {
		t.Fatalf("resumed liveness wrong: alive %d, live %v, pending %v", cs2.alive, cs2.live, cs2.pend)
	}
	if env2.spawned != 2 || cs2.ids[0] != 100 || cs2.ids[1] != 101 {
		t.Fatalf("resumed set spawned %d workers with ids %v, want fresh 100 and 101", env2.spawned, cs2.ids)
	}
	if !slices.Equal(env2.watched, []pvm.TaskID{100, 101}) {
		t.Fatalf("watched %v, want the fresh workers 100 and 101", env2.watched)
	}
	inits := env2.sends(TagInit)
	if len(inits) != 2 {
		t.Fatalf("resumed set sent %d TagInits, want 2 (one per fresh worker)", len(inits))
	}
	for j, m := range inits {
		in := m.Data.(initMsg)
		if m.To != cs2.ids[j] || in.RangeLo != ck.CLWs[j].RangeLo || in.RangeHi != ck.CLWs[j].RangeHi ||
			in.Trials != ck.CLWs[j].Trials || !slices.Equal(in.Perm, ck.Perm) {
			t.Fatalf("worker %d seeded with %+v, want the checkpointed slot %+v", j, in, ck.CLWs[j])
		}
	}
	req := env2.sends(TagRespawn)
	if len(req) != 1 || req[0].To != master || req[0].Data.(respawnMsg).CLWIdx != 2 {
		t.Fatalf("respawn requests = %+v, want one TagRespawn{CLWIdx:2} to the master", req)
	}
	// Ranges and trial budgets round-trip; only the IDs are new.
	again := cs2.slots()
	for j := range again {
		want := ck.CLWs[j]
		if want.State == clwSlotLive {
			want.ID = cs2.ids[j]
		}
		if again[j] != want {
			t.Fatalf("slot %d round-tripped to %+v, want %+v", j, again[j], want)
		}
	}

	// The replacement attaches at the barrier, and the live workers
	// again own the space exactly.
	cs2.onAck(env2, respawnAckMsg{CLWIdx: 2, ID: 56})
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

// TestRespawnTSWRetiresOrphans: resurrecting a TSW stops exactly the
// CLWs its dead incarnation may have left running — the live workers
// of its checkpoint and every replacement the master spawned for it —
// and nothing of another TSW's. The record of replacements starts over
// with the successor.
func TestRespawnTSWRetiresOrphans(t *testing.T) {
	cfg := quickCfg()
	cfg.TSWs, cfg.CLWs = 2, 3
	cfg.Adaptive = true
	env := &stubEnv{}
	r := newRecovery(env, &qapTestProblem{ins: qap.Random(20, 3)}, cfg)
	r.cks[0] = &tswCheckpoint{WorkerIdx: 0, CLWs: []clwSlot{
		{ID: 10, State: clwSlotLive},
		{ID: 11, State: clwSlotDead}, // stale: its worker died
		{ID: 12, State: clwSlotLive},
	}}
	r.cks[1] = &tswCheckpoint{WorkerIdx: 1, CLWs: []clwSlot{{ID: 20, State: clwSlotLive}}}
	r.handleRespawn(5, 0, respawnMsg{CLWIdx: 1}) // TSW 0's replacement: task 100
	r.handleRespawn(6, 1, respawnMsg{CLWIdx: 0}) // TSW 1's replacement: task 101

	stopped := func(from int) []pvm.TaskID {
		var ids []pvm.TaskID
		for _, m := range env.sent[from:] {
			if m.Tag == TagStop {
				ids = append(ids, m.To)
			}
		}
		slices.Sort(ids)
		return ids
	}
	if _, err := r.respawnTSW(0); err != nil {
		t.Fatal(err)
	}
	if got := stopped(0); !slices.Equal(got, []pvm.TaskID{10, 12, 100}) {
		t.Fatalf("first resurrection stopped %v, want [10 12 100]", got)
	}
	if len(r.spawned[0]) != 0 || !slices.Equal(r.spawned[1], []pvm.TaskID{101}) {
		t.Fatalf("replacement record after resurrection = %v, want TSW 0's cleared and TSW 1's kept", r.spawned)
	}
	// The successor (task 102) dies before its announcement lands: its
	// predecessor's checkpoint is retired again, the cleared record not.
	n := len(env.sent)
	if _, err := r.respawnTSW(0); err != nil {
		t.Fatal(err)
	}
	if got := stopped(n); !slices.Equal(got, []pvm.TaskID{10, 12}) {
		t.Fatalf("second resurrection stopped %v, want [10 12]", got)
	}
	if r.lost != 2 || r.respawned != 4 {
		t.Fatalf("lost %d respawned %d, want 2 and 4 (two TSWs, two CLW replacements)", r.lost, r.respawned)
	}
}

// TestResumedTSWAnnouncesFreshSet drives tswRun from a checkpoint, once
// as after a master restart (SkipRound) and once as after a mid-run
// loss. Either way the TSW spawns fresh CLWs over the live slots, asks
// for a replacement for the dead one, and announces the new IDs in a
// TagCheckpoint before its first TagSearch or verdict wait — carrying
// the resume checkpoint's own RandSeed, so its stream is not advanced.
func TestResumedTSWAnnouncesFreshSet(t *testing.T) {
	prob := &qapTestProblem{ins: qap.Random(20, 3)}
	cfg := quickCfg()
	cfg.TSWs, cfg.CLWs = 1, 3
	cfg.LocalIters = 1
	cfg.Adaptive = true
	st, err := prob.Initial(cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	const master = pvm.TaskID(1)
	for _, skip := range []bool{true, false} {
		t.Run(fmt.Sprintf("SkipRound=%v", skip), func(t *testing.T) {
			ck := &tswCheckpoint{
				Perm: st.Snapshot(), BestPerm: st.Snapshot(), Best: st.Cost(),
				Freq: make([]int64, prob.Size()), RandSeed: 4242, DivLo: 0, DivHi: prob.Size(),
				CLWs: []clwSlot{
					{ID: 10, State: clwSlotLive, RangeLo: 0, RangeHi: 7},
					{ID: 11, State: clwSlotDead, RangeLo: 7, RangeHi: 14},
					{ID: 12, State: clwSlotLive, RangeLo: 14, RangeHi: 20},
				},
				SkipRound: skip,
			}
			// The fresh CLWs are tasks 100 and 101.
			var inbox []stubRecv
			if !skip {
				for _, id := range []pvm.TaskID{100, 101} {
					inbox = append(inbox, stubRecv{0, pvm.Message{From: id, Tag: TagCandidate, Data: candMsg{}}})
				}
			}
			inbox = append(inbox,
				stubRecv{1, pvm.Message{From: master, Tag: TagStop}},
				stubRecv{1, pvm.Message{From: 100, Tag: TagStats, Data: WorkerStats{}}},
				stubRecv{1, pvm.Message{From: 101, Tag: TagStats, Data: WorkerStats{}}},
			)
			env := &stubEnv{inbox: inbox}
			tswRun(env, prob, cfg, master, ck)

			if len(env.inbox) != 0 || env.spawned != 2 {
				t.Fatalf("TSW left %d scripted messages unread after %d spawns, want 0 after 2", len(env.inbox), env.spawned)
			}
			announce, search := -1, -1
			for k, m := range env.sent {
				if m.Tag == TagCheckpoint && announce < 0 {
					announce = k
				}
				if m.Tag == TagSearch && search < 0 {
					search = k
				}
			}
			if announce < 0 {
				t.Fatal("resumed TSW never announced its CLW set")
			}
			if announce >= env.recvAt[0] || (search >= 0 && announce >= search) {
				t.Fatalf("announcement at send %d, after the first receive (%d) or TagSearch (%d)", announce, env.recvAt[0], search)
			}
			if skip != (search < 0) {
				t.Fatalf("SkipRound=%v but first TagSearch at send %d", skip, search)
			}
			ann := env.sent[announce].Data.(tswCheckpoint)
			if env.sent[announce].To != master || ann.RandSeed != ck.RandSeed || ann.SkipRound {
				t.Fatalf("announcement to %d with RandSeed %d, SkipRound %v; want to the master with the resume seed %d and no SkipRound",
					env.sent[announce].To, ann.RandSeed, ann.SkipRound, ck.RandSeed)
			}
			if ann.CLWs[0].ID != 100 || ann.CLWs[0].State != clwSlotLive || ann.CLWs[1].State != clwSlotDead ||
				ann.CLWs[2].ID != 101 || ann.CLWs[2].State != clwSlotLive {
				t.Fatalf("announced slots %+v, want fresh 100 and 101 live and slot 1 dead", ann.CLWs)
			}
			if req := env.sends(TagRespawn); len(req) != 1 || req[0].Data.(respawnMsg).CLWIdx != 1 {
				t.Fatalf("respawn requests = %+v, want one for the dead slot 1", req)
			}
			for _, m := range env.sent {
				if m.To == 10 || m.To == 11 || m.To == 12 {
					t.Fatalf("resumed TSW sent tag %d to its predecessor's CLW %d", m.Tag, m.To)
				}
			}
		})
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
// stop the dead TSW's CLWs, resurrect the TSW from its piggybacked
// checkpoint onto a fresh CLW set on live capacity, and still complete
// the full budget un-Interrupted, with every loss repaired.
func TestTSWLossResurrectsFromCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	ctx := context.Background()
	newProblem := func() Problem { return &qapTestProblem{ins: qap.Random(30, 11)} }

	master, addr := listenLoopback(t, 3)
	defer master.Close()

	// Worker 1 hosts the TSW (slot 1) and, with the slot ring wrapping,
	// CLW 2; killing it tests the checkpoint-resurrection path with two
	// of the three CLWs surviving as orphans to retire.
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
	if res.Stats.WorkersLost != res.Stats.WorkersRespawned {
		t.Errorf("WorkersLost = %d but WorkersRespawned = %d; every loss must be repaired",
			res.Stats.WorkersLost, res.Stats.WorkersRespawned)
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

// TestResurrectedTSWOnWorkerPlacesCLWsOnLiveCapacity kills the worker
// hosting the TSW and, by the ring wrap, its first CLW, while another
// worker has a slot with nothing on it: the master resurrects the TSW
// on that spare worker slot, and the successor, now a worker-hosted
// task, must still place the fresh CLW for the dead slot on live
// capacity rather than on its dead preferred machine.
func TestResurrectedTSWOnWorkerPlacesCLWsOnLiveCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	ctx := context.Background()
	newProblem := func() Problem { return &qapTestProblem{ins: qap.Random(30, 11)} }
	master, addr := listenLoopback(t, 3)
	defer master.Close()

	serve := func(ctx context.Context, name string, capacity int) chan error {
		ch := make(chan error, 1)
		go func() {
			ch <- ServeWorker(ctx, newProblem(), WorkerOptions{
				Addr: addr, Name: name, Speed: 1, Capacity: capacity, Jobs: 1,
			}, nil)
		}()
		return ch
	}
	// Slots: w1 holds 1 (the TSW) and 2 (CLW 0), w2 holds 3 (CLW 1),
	// w3 holds 4 (CLW 2) and the spare 5.
	doomedCtx, killDoomed := context.WithCancel(ctx)
	defer killDoomed()
	w1 := serve(doomedCtx, "w1", 2)
	waitWorkers(t, master, 1)
	w2 := serve(ctx, "w2", 1)
	waitWorkers(t, master, 2)
	w3 := serve(ctx, "w3", 2)
	waitWorkers(t, master, 3)

	cfg := quickCfg()
	cfg.TSWs, cfg.CLWs = 1, 3
	cfg.GlobalIters, cfg.LocalIters = 6, 15
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
	if res.Interrupted || res.Rounds != cfg.GlobalIters {
		t.Fatalf("run Interrupted=%v after %d of %d rounds; want it complete", res.Interrupted, res.Rounds, cfg.GlobalIters)
	}
	if res.Stats.WorkersLost != 1 || res.Stats.WorkersRespawned != 1 {
		t.Errorf("WorkersLost = %d, WorkersRespawned = %d; want 1 and 1 (the TSW)",
			res.Stats.WorkersLost, res.Stats.WorkersRespawned)
	}
	for name, ch := range map[string]chan error{"w2": w2, "w3": w3, "w1": w1} {
		select {
		case err := <-ch:
			if err != nil && name != "w1" {
				t.Errorf("worker %s: %v", name, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("worker %s never finished", name)
		}
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
