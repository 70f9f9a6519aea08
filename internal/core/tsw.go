package core

import (
	"fmt"
	"sort"

	"pts/internal/pvm"
	"pts/internal/rng"
	"pts/internal/sched"
	"pts/internal/tabu"
)

// refreshEvery is how many accepted moves a TSW makes between full
// refreshes of its state (a full timing analysis for placement).
const refreshEvery = 64

// tswRun is the tabu search worker body (paper Fig. 3). Per global
// iteration it diversifies with respect to its own element range, runs
// LocalIters tabu iterations driven by its CLWs, reports its best
// (solution + tabu list) to the master, and adopts the broadcast global
// best. Rounds are driven by the master's verdicts: a TagGlobal starts
// the next round, a TagStop ends the run — so the master alone decides
// when a cancelled run winds down.
//
// In adaptive mode (Config.Adaptive) the TSW additionally owns a
// scheduler over its CLWs: their element ranges are seeded from the
// declared machine speeds, re-partitioned at every resync barrier to
// track observed throughput, and a CLW whose hosting process dies
// (pvm.TagExit) is written off with its range folded back into the
// survivors instead of stalling the protocol. With respawn enabled
// (the adaptive default) the TSW additionally asks the master for a
// replacement, which it seeds with its current solution at the next
// resync barrier, restoring the lost parallelism.
//
// Every TSW follows one checkpoint-relative random protocol. It sends
// a recovery checkpoint at spawn and piggybacks one on every report,
// and after each it continues from the very seed the checkpoint
// publishes. At every resync barrier it deals one reseed per CLW slot
// from that stream. Every random stream of the run is therefore a
// pure function of the latest checkpoints, which is what lets the
// master resurrect a lost TSW (respawn) or resume a whole run from a
// persisted snapshot (Config.Store) onto the uninterrupted trajectory.
//
// resume, when non-nil, is the checkpoint this TSW continues from,
// after a mid-run loss or a master restart alike: it skips the TagInit
// handshake, restores the predecessor's search state and spawns a
// fresh CLW set over the checkpointed ranges (the master has stopped
// the predecessor's CLWs). It announces the new set in a TagCheckpoint
// before entering the round loop. With SkipRound set (master restart)
// the TSW skips straight to the verdict wait — the checkpointed round
// is already in the master's snapshot.
func tswRun(env pvm.Env, problem Problem, cfg Config, master pvm.TaskID, resume *tswCheckpoint) {
	list := tabu.NewList()
	var (
		prob     State
		freq     *tabu.Frequency
		tswRand  rng.SplitMix64
		iter     int64
		stats    WorkerStats
		best     float64
		bestPerm []int32 // reused buffer; copied on report
		cs       *clwSet
	)
	var divLo, divHi int32 // diversification range (master rebalances it)
	var pending []improvement
	acceptedSinceRefresh := 0

	// checkpoint captures this TSW's recovery state and continues the
	// random stream from the very seed it publishes: a successor
	// reseeded with RandSeed then carries exactly this stream, so
	// resumed and uninterrupted runs draw identical numbers from here on.
	checkpoint := func() tswCheckpoint {
		ck := buildCheckpoint(cs.widx, prob, list, freq, &tswRand, iter, stats, best, bestPerm, divLo, divHi, acceptedSinceRefresh, cs)
		tswRand.Seed(int64(ck.RandSeed))
		return ck
	}

	if resume == nil {
		init := env.Recv(TagInit).Data.(initMsg)
		prob = mustState(env, problem, init.Perm)
		freq = tabu.NewFrequency(prob.Size())
		tswRand = *env.Rand() // a copy, which checkpoints reseed in place
		best = prob.Cost()
		bestPerm = prob.Snapshot()
		divLo, divHi = init.RangeLo, init.RangeHi

		// Spawn this worker's CLWs once; they live for the whole run and
		// sit on their round-robin machines (cfg.clwMachine).
		cs = newCLWSet(env, problem, cfg, init.Perm, init.WorkerIdx, master, nil)
		// The spawn-time checkpoint closes the recovery gap before the
		// first report: the master can resurrect this TSW (and find its
		// CLWs) from the instant they exist. Sent on the same channel
		// the CLW spawns went through, so it can never trail them.
		env.Send(master, TagCheckpoint, checkpoint())
	} else {
		ck := resume
		prob = mustState(env, problem, ck.Perm)
		freq = tabu.NewFrequency(prob.Size())
		freq.Import(ck.Freq)
		iter = ck.Iter
		list.Import(ck.Tabu, iter)
		stats = ck.Stats
		best = ck.Best
		bestPerm = append([]int32(nil), ck.BestPerm...)
		divLo, divHi = ck.DivLo, ck.DivHi
		acceptedSinceRefresh = ck.AcceptedRefresh
		// The predecessor drew RandSeed from its own stream at checkpoint
		// time and reseeded itself from the same value, so the successor
		// continues the very stream the predecessor carried forward.
		tswRand.Seed(int64(ck.RandSeed))
		cs = newCLWSet(env, problem, cfg, ck.Perm, ck.WorkerIdx, master, ck.CLWs)
		// Announce the fresh CLW set like the spawn-time checkpoint, so
		// the master can retire it should this TSW die too. It is the
		// resume checkpoint with the new IDs: this TSW has drawn nothing
		// from its stream yet, so the resume seed still describes it, and
		// drawing a new one would fork off the uninterrupted trajectory.
		ann := *ck
		ann.CLWs, ann.SkipRound = cs.slots(), false
		env.Send(master, TagCheckpoint, ann)
	}
	staWork := workSTA(cfg, prob.Size())

	noteBest := func() {
		if c := prob.Cost(); c < best {
			best = c
			bestPerm = snapshotInto(prob, bestPerm)
			pending = append(pending, improvement{Time: env.Now(), Cost: c})
		}
	}

	// syncCLWs broadcasts the chosen move of this iteration. The CLWs
	// only read the message, so one boxed value serves them all.
	syncCLWs := func(chosen tabu.CompoundMove) {
		var msg any = syncMsg{Chosen: chosen}
		for j, id := range cs.ids {
			if cs.live[j] {
				env.Send(id, TagSync, msg)
			}
		}
	}

	// Hot-loop scratch, reused across every local iteration so the
	// selection path allocates only when a move is actually accepted.
	collector := newCandCollector(cs)
	var moves []tabu.CompoundMove
	var selSc tabu.SelectScratch
	var divSc divScratch

	firstRound := resume == nil
	// A master-restart resume re-enters the protocol at the verdict
	// wait: its checkpointed round is already folded into the master's
	// snapshot, and the master's kick-off TagGlobal starts the next one.
	skipRound := resume != nil && resume.SkipRound
	for {
		forcedByMaster := false
		if skipRound {
			skipRound = false
		} else {
			// Cooperative cancellation: skip the round's search work and
			// report immediately; the master will answer with TagStop once it
			// has observed the cancellation itself. A TSW whose CLWs all died
			// likewise degrades to reporting its standing best.
			if !env.Cancelled() && cs.alive+len(cs.pend) > 0 {
				// Diversification w.r.t. this worker's own element range (Kelly
				// et al. [10]): forced swaps of the least-moved elements of the
				// range.
				if cfg.DiversifyDepth > 0 {
					diversify(prob, env, &tswRand, freq, list, iter, cfg, divLo, divHi, &divSc)
					stats.Diversifications++
					refresh(prob)
					env.Work(staWork)
					noteBest()
				}
				// The resync barrier: adaptive re-partitions and replacement
				// seeding only ever happen here, immediately before the full
				// state push, so no candidate built against an old range (or
				// an unseeded worker) is in flight.
				newly := cs.revivePending()
				if (!firstRound || len(newly) > 0) && cs.rebalance(env) {
					stats.Rebalances++
				}
				// Reseed every CLW at the barrier: exactly Config.CLWs draws
				// in slot order, liveness notwithstanding, so this stream's
				// consumption — and with it every CLW's stream — is a pure
				// function of the checkpointed state.
				reseeds := make([]uint64, cfg.CLWs)
				for j := range reseeds {
					reseeds[j] = tswRand.Uint64()
				}
				perm := prob.Snapshot()
				for j, id := range cs.ids {
					if cs.live[j] {
						env.Send(id, TagNewState, stateMsg{Perm: perm, Reseed: reseeds[j]})
					}
				}
				cs.attach(env, newly, perm, reseeds)

				for l := 0; l < cfg.LocalIters; l++ {
					// Heterogeneity: the master may force us to report early;
					// a cancelled context forces everyone at once.
					if _, ok := env.TryRecv(reportNowTags...); ok {
						forcedByMaster = true
						stats.ForcedReports++
						break
					}
					if env.Cancelled() {
						break
					}
					stats.LocalIters++
					iter++

					// Fan the candidate construction out to the CLWs.
					for j, id := range cs.ids {
						if cs.live[j] {
							env.Send(id, TagSearch, nil)
						}
					}
					cands := collector.collect(env, cfg.HalfSync, &stats)
					if len(cands) == 0 {
						break // every CLW died mid-iteration
					}
					env.Work(float64(len(cands)) * cfg.WorkPerTrial) // selection cost

					moves = moves[:0]
					for _, c := range cands {
						moves = append(moves, c.Move)
					}
					verdict := tabu.SelectAdmissibleBatch(moves, prob.Cost(), best, list, iter, &selSc)
					var chosen tabu.CompoundMove
					if verdict.Index >= 0 {
						chosen = moves[verdict.Index]
						chosen.Apply(prob)
						env.Work(float64(len(chosen.Swaps)) * cfg.WorkPerTrial)
						for _, s := range chosen.Swaps {
							list.AddAt(s.Attribute(), iter, iter+int64(cfg.Tenure))
						}
						freq.BumpMove(&chosen)
						stats.MovesAccepted++
						acceptedSinceRefresh++
						noteBest()
					}
					stats.TabuRejected += int64(verdict.TabuRejected)
					if verdict.Aspired {
						stats.Aspirations++
					}
					if verdict.Fallback {
						stats.Fallbacks++
					}
					syncCLWs(chosen)

					if acceptedSinceRefresh >= refreshEvery {
						acceptedSinceRefresh = 0
						refresh(prob)
						env.Work(staWork)
						noteBest()
					}
				}
			}
			firstRound = false

			// Report the best to the master (solution + tabu list, §4.1) with
			// the recovery checkpoint piggybacked. The permutation is copied
			// because bestPerm is a reused buffer the next round keeps
			// writing into. The checkpoint exports the tabu list at this
			// very iteration, and every reader only reads it, so the report
			// shares that export.
			ck := checkpoint()
			env.Send(master, TagBest, bestMsg{
				Cost:       best,
				Perm:       append([]int32(nil), bestPerm...),
				Tabu:       ck.Tabu,
				Points:     pending,
				Forced:     forcedByMaster,
				Stats:      stats,
				Checkpoint: ck,
			})
			pending = nil
		}

		// Wait for the verdict; ignore stale force requests.
		for {
			m := env.Recv(TagGlobal, TagStop, TagReportNow, pvm.TagExit, TagRespawnAck)
			if m.Tag == TagReportNow {
				continue
			}
			if m.Tag == pvm.TagExit {
				cs.onExit(env, m.From, &stats)
				continue
			}
			if m.Tag == TagRespawnAck {
				cs.onAck(env, m.Data.(respawnAckMsg))
				continue
			}
			if m.Tag == TagStop {
				cs.shutdown(env, &stats)
				env.Send(master, TagStats, stats)
				return
			}
			gm := m.Data.(globalMsg)
			if err := prob.Restore(gm.Perm); err != nil {
				panic(fmt.Sprintf("core: tsw %s: %v", env.Name(), err))
			}
			if gm.Rebalance {
				divLo, divHi = gm.RangeLo, gm.RangeHi
			}
			env.Work(staWork)
			// Adopt the winner's tabu list with the solution.
			list.Reset()
			list.Import(gm.Tabu, iter)
			noteBest()
			break
		}
	}
}

// buildCheckpoint captures the TSW's recovery state: search memory,
// counters, the CLW attachment table, and a fresh seed for the
// successor's random stream. Everything is copied — the checkpoint
// must stay valid after the TSW keeps mutating its buffers.
func buildCheckpoint(widx int, prob State, list *tabu.List, freq *tabu.Frequency,
	r *rng.SplitMix64, iter int64, stats WorkerStats, best float64, bestPerm []int32,
	divLo, divHi int32, acceptedRefresh int, cs *clwSet) tswCheckpoint {
	return tswCheckpoint{
		WorkerIdx:       widx,
		Iter:            iter,
		Best:            best,
		BestPerm:        append([]int32(nil), bestPerm...),
		Perm:            prob.Snapshot(),
		Tabu:            list.Export(iter),
		Freq:            freq.Export(),
		RandSeed:        r.Uint64(),
		Stats:           stats,
		DivLo:           divLo,
		DivHi:           divHi,
		AcceptedRefresh: acceptedRefresh,
		CLWs:            cs.slots(),
	}
}

// clwSet is a TSW's view of its candidate-list workers: identity,
// liveness, current element ranges and per-step trial budgets, plus
// (in adaptive mode) the throughput tracker that re-partitions them
// and (with respawn on) the replacements parked for the next barrier.
type clwSet struct {
	cfg     Config
	n       int32
	widx    int
	master  pvm.TaskID
	respawn bool
	ids     []pvm.TaskID
	byID    map[pvm.TaskID]int
	rng     [][2]int32
	live    []bool
	alive   int
	pend    map[int]pvm.TaskID // CLW index -> spawned-but-unseeded replacement
	track   *sched.Tracker     // nil in static mode
}

// newCLWSet spawns the TSW's CLWs over perm and initializes them.
// Element ranges are the static equal split by default, or
// speed-proportional shares (seeded from the declared machine speeds)
// in adaptive mode. A resumed TSW passes its checkpoint's slots
// instead: each slot live there gets a fresh CLW over its checkpointed
// range, placed on live capacity (pvm.RespawnSlotOf — the slot's
// preferred machine may have died with the predecessor), and each slot
// dead there asks the master for a replacement, attached at a resync
// barrier. CLWs whose range is empty — more workers than elements —
// are not spawned at all. The CLWs work in lockstep with the TSW, so
// the in-process transport runs them as coroutines on the TSW's thread
// (pvm.Spec.Colocate): a TSW/CLW handoff is then a coroutine switch,
// and the CLWs take their turns in a fixed order.
func newCLWSet(env pvm.Env, problem Problem, cfg Config, perm []int32, widx int, master pvm.TaskID, resume []clwSlot) *clwSet {
	n := int32(len(perm))
	cs := &clwSet{
		cfg:     cfg,
		n:       n,
		widx:    widx,
		master:  master,
		respawn: cfg.respawn(),
		ids:     make([]pvm.TaskID, cfg.CLWs),
		byID:    make(map[pvm.TaskID]int, cfg.CLWs),
		live:    make([]bool, cfg.CLWs),
		pend:    make(map[int]pvm.TaskID),
	}
	cs.rng = ranges(n, cfg.CLWs)
	if cfg.Adaptive {
		cs.track = seededTracker(env, n, cfg.CLWs, func(j int) int {
			return cfg.clwMachine(widx, j)
		})
		cs.rng = cs.track.Partition()
	}

	for j := 0; j < cfg.CLWs; j++ {
		machine := cfg.clwMachine(widx, j)
		if resume != nil {
			cs.rng[j] = [2]int32{n, n}
			if j < len(resume) {
				cs.rng[j] = [2]int32{resume[j].RangeLo, resume[j].RangeHi}
			}
			if j >= len(resume) || resume[j].State != clwSlotLive {
				if cs.track != nil {
					cs.track.Kill(j)
				}
				if j < int(n) { // slots past the element count never had a worker
					cs.requestRespawn(env, j)
				}
				continue
			}
			machine = pvm.RespawnSlotOf(env, machine)
		}
		if cs.rng[j][1] <= cs.rng[j][0] {
			continue // empty range: nothing for this worker to search
		}
		cs.live[j] = true
		cs.alive++
		cs.ids[j] = env.SpawnSpec(fmt.Sprintf("clw%d", j), machine, pvm.Spec{
			Kind: taskKindCLW,
			Data: clwSpec{},
			Fn: func(e pvm.Env) {
				clwRun(e, problem, cfg)
			},
			Colocate: true,
		})
		cs.byID[cs.ids[j]] = j
	}
	for j, id := range cs.ids {
		if !cs.live[j] {
			continue
		}
		// Adaptive loss tolerance: watch each CLW so a lost hosting
		// process degrades the search instead of aborting the run. In
		// static mode no watch is registered and a loss aborts, the
		// pre-adaptive behavior.
		if cfg.Adaptive {
			pvm.NotifyExit(env, id)
		}
		env.Send(id, TagInit, initMsg{
			Perm:      perm,
			RangeLo:   cs.rng[j][0],
			RangeHi:   cs.rng[j][1],
			WorkerIdx: j,
			Trials:    cs.trialsFor(j),
		})
	}
	return cs
}

// seededTracker builds the adaptive throughput tracker shared by both
// scheduler halves (the master over its TSWs, each TSW over its CLWs):
// k workers over [0, n), weights seeded from the declared speed of the
// machine each worker is placed on, and workers beyond the element
// count dead from the start — matching the empty-range spawn guard.
func seededTracker(env pvm.Env, n int32, k int, machineOf func(int) int) *sched.Tracker {
	seeds := make([]float64, k)
	for i := range seeds {
		seeds[i] = pvm.MachineSpeedOf(env, machineOf(i))
	}
	t := sched.NewTracker(n, seeds)
	for i := int(n); i < k; i++ {
		t.Kill(i)
	}
	return t
}

// trialsFor returns CLW j's per-step trial budget: Config.Trials
// in static mode, or a budget proportional to its range share in
// adaptive mode (total budget conserved at Trials×CLWs per step, every
// live worker guaranteed at least one trial). Integer arithmetic keeps
// the result bit-deterministic.
func (cs *clwSet) trialsFor(j int) int {
	if cs.track == nil {
		return 0 // initMsg semantics: keep Config.Trials
	}
	lo, hi := cs.rng[j][0], cs.rng[j][1]
	if hi <= lo || cs.n <= 0 {
		return 1
	}
	t := int((int64(cs.cfg.Trials)*int64(cs.cfg.CLWs)*int64(hi-lo) + int64(cs.n)/2) / int64(cs.n))
	if t < 1 {
		t = 1
	}
	return t
}

// slots serializes the attachment table for a checkpoint. A slot
// whose replacement is parked but not yet seeded is dead: the master
// retires that replacement from its own record if this TSW dies.
func (cs *clwSet) slots() []clwSlot {
	out := make([]clwSlot, len(cs.ids))
	for j := range cs.ids {
		out[j] = clwSlot{RangeLo: cs.rng[j][0], RangeHi: cs.rng[j][1], Trials: cs.trialsFor(j)}
		if cs.live[j] {
			out[j].State, out[j].ID = clwSlotLive, cs.ids[j]
		}
	}
	return out
}

// rebalance re-partitions the live CLWs' ranges by observed throughput
// and ships the updates; it reports whether a new partition was
// adopted. Static mode never rebalances. Revived-but-unattached slots
// (revivePending ran, attach has not) receive their range via the
// TagInit that attach sends, not a TagRebalance.
func (cs *clwSet) rebalance(env pvm.Env) bool {
	if cs.track == nil || cs.track.Alive() == 0 {
		return false
	}
	next, changed := cs.track.Rebalance(cs.rng, 0)
	if !changed {
		return false
	}
	cs.rng = next
	for j, id := range cs.ids {
		if !cs.live[j] {
			continue
		}
		env.Send(id, TagRebalance, rebalanceMsg{
			RangeLo: next[j][0],
			RangeHi: next[j][1],
			Trials:  cs.trialsFor(j),
		})
	}
	return true
}

// observe feeds one CLW report into the throughput tracker.
func (cs *clwSet) observe(from pvm.TaskID, c candMsg) {
	if cs.track == nil {
		return
	}
	if j, ok := cs.byID[from]; ok && cs.live[j] && cs.ids[j] == from {
		cs.track.Observe(j, float64(c.CumTrials), c.At)
	}
}

// onExit writes off a CLW whose hosting process died: it stops being
// scheduled, its range folds into the survivors at the next resync
// barrier, the loss is counted, and — with respawn enabled — a
// replacement is requested from the master (which also covers a
// pending replacement dying before it was ever seeded).
func (cs *clwSet) onExit(env pvm.Env, from pvm.TaskID, stats *WorkerStats) {
	j, ok := cs.byID[from]
	if !ok {
		return
	}
	delete(cs.byID, from)
	switch {
	case cs.live[j] && cs.ids[j] == from:
		cs.live[j] = false
		cs.alive--
		stats.WorkersLost++
		if cs.track != nil {
			cs.track.Kill(j)
		}
		cs.requestRespawn(env, j)
	case cs.pend[j] == from:
		delete(cs.pend, j)
		stats.WorkersLost++
		cs.requestRespawn(env, j)
	}
}

// requestRespawn asks the master for a replacement for CLW slot j.
func (cs *clwSet) requestRespawn(env pvm.Env, j int) {
	if !cs.respawn {
		return
	}
	env.Send(cs.master, TagRespawn, respawnMsg{CLWIdx: j})
}

// onAck adopts a replacement the master spawned: it is parked as
// pending (watched, but unscheduled and unseeded) until the next
// resync barrier attaches it. A slot has at most one request in
// flight — the next is sent only when the worker this ack names dies
// — so an ack never finds its slot taken. A negative ID is the master
// declining (the run is shutting down).
func (cs *clwSet) onAck(env pvm.Env, a respawnAckMsg) {
	j := a.CLWIdx
	if a.ID < 0 || j < 0 || j >= len(cs.ids) {
		return
	}
	cs.pend[j] = a.ID
	cs.byID[a.ID] = j
	pvm.NotifyExit(env, a.ID)
}

// revivePending is the first half of barrier attachment: every parked
// replacement re-enters the throughput tracker (at the mean live
// weight — its new host's speed is the master's placement choice, not
// ours to know), so the following rebalance carves it a range. The
// slots stay un-live until attach so the rebalance ships no
// TagRebalance to a worker that has not been seeded yet.
func (cs *clwSet) revivePending() []int {
	if len(cs.pend) == 0 {
		return nil
	}
	newly := make([]int, 0, len(cs.pend))
	for j := range cs.pend {
		newly = append(newly, j)
	}
	sort.Ints(newly)
	if cs.track != nil {
		mean := cs.track.MeanAliveWeight()
		for _, j := range newly {
			cs.track.Revive(j, mean)
		}
	}
	return newly
}

// attach is the second half: the revived slots go live and each
// replacement is seeded with a TagInit carrying the current solution,
// its range from the just-adopted partition, and its budget — after
// which it participates in the round like any other CLW. The TagInit
// also carries the slot's barrier reseed (the replacement attaches
// after the barrier's TagNewState went out, so this is where it
// receives the draw its slot was dealt).
func (cs *clwSet) attach(env pvm.Env, newly []int, perm []int32, reseeds []uint64) {
	for _, j := range newly {
		id := cs.pend[j]
		delete(cs.pend, j)
		cs.ids[j] = id
		cs.live[j] = true
		cs.alive++
		env.Send(id, TagInit, initMsg{
			Perm:      perm,
			RangeLo:   cs.rng[j][0],
			RangeHi:   cs.rng[j][1],
			WorkerIdx: j,
			Trials:    cs.trialsFor(j),
			Reseed:    reseeds[j],
		})
	}
}

// shutdown stops every surviving CLW and folds its stats into the
// TSW's; CLWs dying during the handshake are written off like any
// other loss. Pending replacements are retired unseeded (they exit
// without a stats report), and replacement acks arriving during the
// handshake retire their worker the same way.
func (cs *clwSet) shutdown(env pvm.Env, stats *WorkerStats) {
	cs.respawn = false // losses from here on are not worth replacing
	for j, id := range cs.ids {
		if cs.live[j] {
			env.Send(id, TagStop, nil)
		}
	}
	for _, id := range cs.pend {
		env.Send(id, TagStop, nil)
	}
	cs.pend = make(map[int]pvm.TaskID)
	expected := cs.alive
	for expected > 0 {
		m := env.Recv(TagStats, pvm.TagExit, TagRespawnAck)
		if m.Tag == pvm.TagExit {
			was := cs.alive
			cs.onExit(env, m.From, stats)
			expected -= was - cs.alive
			continue
		}
		if m.Tag == TagRespawnAck {
			if a := m.Data.(respawnAckMsg); a.ID >= 0 {
				env.Send(a.ID, TagStop, nil)
			}
			continue
		}
		// Retire the sender on receipt: its hosting process dying *after*
		// the stats handshake must not decrement expectations a second
		// time (the late TagExit then finds the worker already retired).
		if j, ok := cs.byID[m.From]; ok && cs.live[j] {
			cs.live[j] = false
			cs.alive--
			delete(cs.byID, m.From)
		}
		stats.add(m.Data.(WorkerStats))
		expected--
	}
}

// candCollector gathers one candidate per live CLW each local
// iteration. Its buffers (the output slice and the reported set) are
// allocated once per TSW and reused for every iteration of the run.
type candCollector struct {
	cs       *clwSet
	out      []candMsg
	reported map[pvm.TaskID]bool
}

func newCandCollector(cs *clwSet) *candCollector {
	return &candCollector{
		cs:       cs,
		out:      make([]candMsg, 0, len(cs.ids)),
		reported: make(map[pvm.TaskID]bool, len(cs.ids)),
	}
}

// collect returns one candidate per live CLW; the returned slice is
// valid until the next collect. In half-sync mode it waits for half of
// them, forces the rest with TagReportNow, then waits for the
// remainder (they arrive promptly, truncated). A CLW dying mid-collect
// is written off and no longer awaited.
func (cc *candCollector) collect(env pvm.Env, halfSync bool, stats *WorkerStats) []candMsg {
	cs := cc.cs
	expected := cs.alive
	cc.out = cc.out[:0]
	for id := range cc.reported {
		delete(cc.reported, id)
	}
	take := func() {
		m := env.Recv(candidateTags...)
		if m.Tag == pvm.TagExit {
			if j, ok := cs.byID[m.From]; ok && cs.live[j] && cs.ids[j] == m.From && !cc.reported[m.From] {
				expected--
			}
			cs.onExit(env, m.From, stats)
			return
		}
		cc.reported[m.From] = true
		c := m.Data.(candMsg)
		cs.observe(m.From, c)
		cc.out = append(cc.out, c)
	}
	if halfSync && expected > 1 {
		half := (expected + 1) / 2
		for len(cc.out) < half && len(cc.out) < expected {
			take()
		}
		for j, id := range cs.ids {
			if cs.live[j] && !cc.reported[id] {
				env.Send(id, TagReportNow, nil)
			}
		}
	}
	for len(cc.out) < expected {
		take()
	}
	return cc.out
}

// divScratch is a TSW's reusable diversification batch: the partner
// candidates of one forced swap and their deltas.
type divScratch struct {
	cands  []tabu.SwapCand
	deltas []float64
}

// diversify performs the Kelly-style diversification "within the TSW
// range" (paper §4.1): each of DiversifyDepth forced swaps moves the
// least-frequently moved element of [lo, hi) — the long-term-memory
// forcing of Kelly et al. [10] — to the best of Trials candidate
// partners from the same range, scored in one EvalDeltaBatch call (a
// drawn partner equal to the element is skipped; the first strict
// minimum wins). The move is applied regardless of sign, so each TSW
// drifts into its own region of the solution space, but the greedy
// partner choice bounds the damage to the incumbent. The applied
// attributes become tabu so the jump is not immediately undone.
func diversify(prob tabu.Problem, env pvm.Env, r *rng.SplitMix64, freq *tabu.Frequency, list *tabu.List,
	iter int64, cfg Config, lo, hi int32, sc *divScratch) {
	size := prob.Size()
	if hi <= lo+1 || size < 2 {
		return
	}
	if cap(sc.deltas) < cfg.Trials {
		sc.cands = make([]tabu.SwapCand, 0, cfg.Trials)
		sc.deltas = make([]float64, cfg.Trials)
	}
	span := rng.NewBound(int(hi - lo))
	for i := 0; i < cfg.DiversifyDepth; i++ {
		a := freq.LeastMoved(r, lo, hi)
		cands := sc.cands[:0]
		for t := 0; t < cfg.Trials; t++ {
			if b := lo + int32(r.IntnBound(&span)); b != a {
				cands = append(cands, tabu.SwapCand{A: a, B: b})
			}
		}
		env.Work(float64(cfg.Trials) * cfg.WorkPerTrial)
		if len(cands) == 0 {
			continue
		}
		deltas := sc.deltas[:len(cands)]
		tabu.EvalDeltaBatch(prob, cands, deltas)
		best := 0
		for k := 1; k < len(deltas); k++ {
			if deltas[k] < deltas[best] {
				best = k
			}
		}
		b := cands[best].B
		prob.ApplySwap(a, b)
		freq.BumpSwap(a, b)
		list.AddAt(tabu.Attr(a, b), iter, iter+int64(cfg.Tenure))
	}
}
