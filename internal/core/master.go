package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"pts/internal/pvm"
	"pts/internal/sched"
	"pts/internal/stats"
	"pts/internal/store"
	"pts/internal/tabu"
)

// masterState is what the master process writes back to RunProblem.
type masterState struct {
	bestCost    float64
	bestPerm    []int32
	trace       stats.Trace
	stats       WorkerStats
	rounds      int
	interrupted bool
}

// masterSnapshot is the master's durable run state — everything a
// restarted master needs to resume the run where the dead one left
// off. It is persisted (gob under "runs/<RunID>") at every resync
// barrier but the last: the point where the TSW checkpoint ledger is
// freshest (one piggybacked checkpoint per report) and the incumbent
// best was just re-selected. Problem/Size/Seed fingerprint the run so a stale
// snapshot from different inputs is refused rather than resumed.
type masterSnapshot struct {
	Problem string
	Size    int32
	Seed    uint64
	// Round is the number of completed global iterations; the resumed
	// run continues with round index Round.
	Round    int
	BestCost float64
	BestPerm []int32
	BestTabu []tabu.Entry
	// Checkpoints is the recovery ledger: TSW index → latest
	// checkpoint. An entry with OK unset belongs to a TSW none ever
	// arrived from — it restarts from the global best instead. (A
	// value wrapper rather than a nil pointer: gob cannot encode nil
	// pointers inside a slice.)
	Checkpoints []snapCheckpoint
	// Latest carries each TSW's cumulative counters at snapshot time,
	// for stats continuity across the restart.
	Latest []WorkerStats
	// Lost and Respawned carry the recovery counters across restarts.
	Lost, Respawned int64
}

// snapCheckpoint is one TSW's slot in the persisted recovery ledger.
type snapCheckpoint struct {
	OK bool
	CK tswCheckpoint
}

// usable reports whether every range the snapshot hands a TSW or CLW
// lies within [0, Size], checkpoint i is TSW i's own, and prob accepts
// every solution in it as a state: what NewState refuses here, a
// worker would otherwise panic on (mustState).
func (s *masterSnapshot) usable(prob Problem) bool {
	inRange := func(lo, hi int32) bool { return lo >= 0 && lo <= hi && hi <= s.Size }
	perms := [][]int32{s.BestPerm}
	for i, c := range s.Checkpoints {
		if !c.OK {
			continue
		}
		ck := c.CK
		if ck.WorkerIdx != i || !inRange(ck.DivLo, ck.DivHi) {
			return false
		}
		for _, sl := range ck.CLWs {
			if !inRange(sl.RangeLo, sl.RangeHi) {
				return false
			}
		}
		perms = append(perms, ck.Perm, ck.BestPerm)
	}
	for _, p := range perms {
		if _, err := prob.NewState(p); err != nil {
			return false
		}
	}
	return true
}

// encodeSnapshot serializes a snapshot for the store.
func encodeSnapshot(snap *masterSnapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("core: encoding run snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeSnapshot deserializes a stored snapshot.
func decodeSnapshot(b []byte) (*masterSnapshot, error) {
	var snap masterSnapshot
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decoding run snapshot: %w", err)
	}
	return &snap, nil
}

// persistSnapshot encodes the run's durable state at a resync barrier
// and hands it to the run's snapshot writer. Best-effort: a failing
// store degrades durability, not the run in flight — the previous
// snapshot (if any) stays valid.
func persistSnapshot(w *snapshotWriter, prob Problem, cfg Config, ts *tswSet, out *masterState, bestTabu []tabu.Entry) {
	snap := &masterSnapshot{
		Problem:     prob.Name(),
		Size:        prob.Size(),
		Seed:        cfg.Seed,
		Round:       out.rounds,
		BestCost:    out.bestCost,
		BestPerm:    out.bestPerm,
		BestTabu:    bestTabu,
		Latest:      append([]WorkerStats(nil), ts.latest...),
		Checkpoints: make([]snapCheckpoint, len(ts.rec.cks)),
		Lost:        ts.rec.lost,
		Respawned:   ts.rec.respawned,
	}
	for i, ck := range ts.rec.cks {
		if ck != nil {
			snap.Checkpoints[i] = snapCheckpoint{OK: true, CK: *ck}
		}
	}
	if b, err := encodeSnapshot(snap); err == nil {
		w.put(b)
	}
}

// snapshotWriter writes a store-backed run's snapshots behind the
// search: the master encodes each snapshot at its barrier and
// broadcasts the next round at once, while one goroutine per run
// issues the fsynced Put. At most one snapshot waits behind the write
// in progress; a newer one replaces it, so writes land in round order.
type snapshotWriter struct {
	st      store.Store
	key     string
	waiting chan []byte   // capacity 1; the master is its only sender
	done    chan struct{} // closed when the goroutine has exited
}

func newSnapshotWriter(st store.Store, key string) *snapshotWriter {
	w := &snapshotWriter{st: st, key: key, waiting: make(chan []byte, 1), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for b := range w.waiting {
			_ = w.st.Put(w.key, b)
		}
	}()
	return w
}

// put queues b as the run's newest snapshot, replacing one still
// waiting. With the master the only sender, the channel is empty after
// the drain, so the send never blocks.
func (w *snapshotWriter) put(b []byte) {
	select {
	case <-w.waiting:
	default:
	}
	w.waiting <- b
}

// flush writes the snapshot still waiting, if any, waits for the
// write in progress and stops the goroutine. put must not follow it.
func (w *snapshotWriter) flush() {
	close(w.waiting)
	<-w.done
}

// masterRun is the master process body (paper Fig. 2): spawn the TSWs,
// give every one the same initial solution, then per global iteration
// collect their bests (half-sync in heterogeneous mode), select the
// overall best and broadcast it together with its tabu list.
//
// When the run's context is cancelled, the master finishes collecting
// the round in flight, skips the remaining rounds and proceeds straight
// to the shutdown handshake, so every worker drains cleanly and the
// best-so-far is preserved.
//
// The master remembers every TSW's latest checkpoint (piggybacked on
// TagBest, plus the spawn-time TagCheckpoint) in every run; that
// ledger is what a Store persists, through a snapshotWriter that
// masterRun flushes on every way out — an abort's unwind included — so
// RunProblem's Delete, and the next run over the same store, see the
// final write. With recovery enabled (adaptive runs, Config.respawn)
// the master is also the cluster's undertaker: it spawns replacement
// CLWs on live capacity when a TSW reports a loss (TagRespawn),
// watches the TSWs themselves, and resurrects a lost TSW from its
// checkpoint — stopping the dead TSW's CLWs, while the successor
// spawns a fresh set — so no single worker process is fatal to the
// run.
func masterRun(env pvm.Env, prob Problem, cfg Config,
	initPerm []int32, initCost float64, snap *masterSnapshot, out *masterState) {

	var snaps *snapshotWriter
	if cfg.Store != nil {
		snaps = newSnapshotWriter(cfg.Store, cfg.runKey())
		defer snaps.flush()
	}
	out.bestCost = initCost
	out.bestPerm = append([]int32(nil), initPerm...)
	// raw gathers every incumbent improvement any TSW observed; the
	// monotone envelope becomes the run's trace at the end.
	var raw []improvement
	raw = append(raw, improvement{Time: env.Now(), Cost: initCost})

	var bestTabu []tabu.Entry
	startRound := 0
	if snap != nil {
		// Resuming from a persisted snapshot: adopt the incumbent and
		// continue the round count where the dead master stopped.
		startRound = snap.Round
		out.bestCost = snap.BestCost
		out.bestPerm = append(out.bestPerm[:0], snap.BestPerm...)
		out.rounds = snap.Round
		bestTabu = snap.BestTabu
		raw = append(raw, improvement{Time: env.Now(), Cost: snap.BestCost})
	}

	// The master occupies machine 0; workers go round-robin after it
	// (cfg.tswMachine, cfg.clwMachine).
	ts := &tswSet{
		env:    env,
		cfg:    cfg,
		ids:    make([]pvm.TaskID, cfg.TSWs),
		idx:    make(map[pvm.TaskID]int, cfg.TSWs),
		latest: make([]WorkerStats, cfg.TSWs),
		rec:    newRecovery(env, prob, cfg),
	}
	if snap != nil {
		// The recovery ledger starts empty: the snapshot's CLW task IDs
		// died with the old run, so each resumed TSW's own announcement
		// is its first checkpoint here.
		ts.rec.lost = snap.Lost
		ts.rec.respawned = snap.Respawned
	}
	resumed := make([]bool, cfg.TSWs)
	for i := 0; i < cfg.TSWs; i++ {
		var resume *tswCheckpoint
		if snap != nil && i < len(snap.Checkpoints) && snap.Checkpoints[i].OK {
			// This TSW restarts from its persisted checkpoint: fresh CLWs
			// like every resumed TSW, then straight to the verdict wait —
			// its checkpointed round is already in the snapshot's round
			// count.
			ck := snap.Checkpoints[i].CK
			ck.SkipRound = true
			resume = &ck
			resumed[i] = true
		}
		rs := resume
		ts.ids[i] = env.SpawnSpec(fmt.Sprintf("tsw%d", i), cfg.tswMachine(i), pvm.Spec{
			Kind: taskKindTSW,
			Data: tswSpec{Master: env.Self(), Resume: rs},
			Fn: func(e pvm.Env) {
				tswRun(e, prob, cfg, env.Self(), rs)
			},
		})
		// Recovery: watch the TSWs themselves, so a lost one can be
		// resurrected from its checkpoint instead of aborting the run.
		// (Static runs keep the static loss semantics: no watch, a lost
		// worker aborts the run; with a store, the persisted snapshot is
		// then what makes the abort recoverable.)
		if cfg.respawn() {
			pvm.NotifyExit(env, ts.ids[i])
		}
	}
	// Diversification ranges over the TSWs: the static equal split, or
	// (adaptive) speed-seeded shares re-partitioned by each TSW's
	// observed iteration throughput — the master-level half of the
	// scheduler.
	divRanges := ranges(prob.Size(), cfg.TSWs)
	var track *sched.Tracker
	if cfg.Adaptive {
		track = seededTracker(env, prob.Size(), cfg.TSWs, cfg.tswMachine)
		divRanges = track.Partition()
	}
	kickoff := globalMsg{Perm: out.bestPerm, Tabu: bestTabu}
	// Fresh TSWs get a copy of the starting solution: out.bestPerm is
	// overwritten in place as reports fold, and a TSW forwards the
	// solution to its CLWs, which may build their state from it only
	// after the TSW's first report (in process they first run when
	// their TSW blocks).
	startPerm := append([]int32(nil), out.bestPerm...)
	for i, id := range ts.ids {
		ts.idx[id] = i
		if snap != nil && i < len(snap.Latest) {
			ts.latest[i] = snap.Latest[i]
		}
		if resumed[i] {
			// The resumed TSW waits at the verdict boundary; the kick-off
			// broadcast — the TagGlobal the dead master never sent — starts
			// its next round. Skipped when the snapshot already covers the
			// full budget: the TSW then waits for the TagStop below.
			if startRound < cfg.GlobalIters {
				env.Send(id, TagGlobal, kickoff)
			}
			continue
		}
		// Fresh TSWs — none in a fresh run's resume, all of them in a
		// plain run, the pre-first-checkpoint stragglers in a resume —
		// start from the global best-so-far (the initial solution when
		// there is none yet).
		env.Send(id, TagInit, initMsg{
			Perm:      startPerm,
			RangeLo:   divRanges[i][0],
			RangeHi:   divRanges[i][1],
			WorkerIdx: i,
		})
	}

	roundStart := env.Now()
	for g := startRound; g < cfg.GlobalIters; g++ {
		reports := ts.collect(cfg.HalfSync)
		env.Work(float64(len(reports.msgs)) * cfg.WorkPerTrial)
		improved := false
		forced := 0
		for i, r := range reports.msgs {
			raw = append(raw, r.Points...)
			if slot := reports.slot[i]; slot >= 0 {
				if track != nil {
					// One throughput observation per TSW per round: local
					// iterations completed this round over the TSW's report
					// latency from the round start — all on the master's own
					// clock. Latency (not the shared collection time) is what
					// still discriminates under full sync, where every TSW
					// does identical per-round work by construction and only
					// how long it took differs.
					dIters := float64(r.Stats.LocalIters - ts.latest[slot].LocalIters)
					track.ObserveWindow(slot, dIters, reports.at[i]-roundStart)
				}
				ts.latest[slot] = r.Stats
			}
			if r.Forced {
				forced++
			}
			if r.Cost < out.bestCost {
				out.bestCost = r.Cost
				out.bestPerm = append(out.bestPerm[:0], r.Perm...)
				bestTabu = r.Tabu
				improved = true
			}
		}
		out.rounds++
		// The round-end observation keeps the trace's time axis spanning
		// the full run even when no TSW improved this round.
		raw = append(raw, improvement{Time: env.Now(), Cost: out.bestCost})
		// Store-backed runs snapshot here — the barrier, where the
		// checkpoint ledger is freshest and the incumbent was just
		// re-selected. A round collected after cancellation fired is
		// never persisted: its reports may come from cancel-truncated
		// local searches, and resuming from it would fork off the
		// uninterrupted trajectory. The previous snapshot stays, and a
		// restart re-runs this round at full length instead. Nor is the
		// last barrier: a clean completion deletes the snapshot moments
		// later, and an interrupted shutdown re-runs the last round from
		// the previous one.
		if snaps != nil && !env.Cancelled() && g < cfg.GlobalIters-1 {
			persistSnapshot(snaps, prob, cfg, ts, out, bestTabu)
		}

		if cfg.Progress != nil {
			snap := Snapshot{
				Round:       g + 1,
				Rounds:      cfg.GlobalIters,
				BestCost:    out.bestCost,
				InitialCost: initCost,
				Elapsed:     env.Now(),
				Improved:    improved,
				Reports:     len(reports.msgs),
				Forced:      forced,
			}
			if track != nil {
				snap.Shares = track.Shares()
			}
			for _, ws := range ts.latest {
				snap.Stats.add(ws)
			}
			snap.Stats.WorkersLost += ts.rec.lost
			snap.Stats.WorkersRespawned += ts.rec.respawned
			cfg.Progress(snap)
		}

		if env.Cancelled() {
			out.interrupted = true
			break
		}
		if g == cfg.GlobalIters-1 {
			break
		}
		// Broadcast the global best (solution + its tabu list) so every
		// TSW restarts the next round from it; under the adaptive
		// scheduler the broadcast also carries each TSW's re-partitioned
		// diversification range.
		rebalanced := false
		if track != nil {
			if next, changed := track.Rebalance(divRanges, 0); changed {
				divRanges = next
				rebalanced = true
			}
		}
		gm := globalMsg{Perm: out.bestPerm, Tabu: bestTabu}
		for i, id := range ts.ids {
			if rebalanced {
				gm.RangeLo, gm.RangeHi = divRanges[i][0], divRanges[i][1]
				gm.Rebalance = true
			}
			env.Send(id, TagGlobal, gm)
		}
		roundStart = env.Now()
	}

	// Shut down and gather counters. From here on replacement requests
	// are declined: a worker lost during the handshake stays lost.
	ts.rec.declining = true
	for _, id := range ts.ids {
		env.Send(id, TagStop, nil)
	}
	expected := len(ts.ids)
	for expected > 0 {
		m := env.Recv(TagStats, TagRespawn, TagCheckpoint, TagBest, pvm.TagExit)
		switch m.Tag {
		case TagStats:
			out.stats.add(m.Data.(WorkerStats))
			expected--
			// Retire the sender on receipt: its host dying *after* the
			// stats handshake (before its task-done frame lands) must not
			// read as a lost TSW and abort a run that actually completed.
			delete(ts.idx, m.From)
		case TagRespawn:
			env.Send(m.From, TagRespawnAck,
				respawnAckMsg{CLWIdx: m.Data.(respawnMsg).CLWIdx, ID: -1})
		case TagCheckpoint, TagBest:
			// Stale pipeline leftovers of a resurrected TSW: drop.
		case pvm.TagExit:
			// A TSW died inside the shutdown handshake — after TagStop was
			// sent, possibly before it forwarded the stop to its CLWs.
			// Nobody can finish those CLWs any more, so tear the run down
			// rather than hang; the result assembled above is intact.
			if _, ok := ts.idx[m.From]; ok {
				out.interrupted = true
				if !pvm.AbortRunOf(env, fmt.Errorf("core: tsw %d lost during shutdown", ts.idx[m.From])) {
					panic("core: task lost on a transport that cannot lose tasks")
				}
				expected--
			}
		}
	}
	out.stats.WorkersLost += ts.rec.lost
	out.stats.WorkersRespawned += ts.rec.respawned

	if cfg.RecordTrace {
		out.trace = envelope(raw)
	}
}

// envelope turns raw improvement observations from many workers into
// the monotone best-cost-versus-time trace: sorted by time, keeping
// only points that improve on everything earlier.
func envelope(raw []improvement) stats.Trace {
	sort.SliceStable(raw, func(i, j int) bool {
		if raw[i].Time != raw[j].Time {
			return raw[i].Time < raw[j].Time
		}
		return raw[i].Cost < raw[j].Cost
	})
	var tr stats.Trace
	best := 0.0
	for i, p := range raw {
		if i == 0 || p.Cost < best {
			best = p.Cost
			tr.Record(p.Time, best)
		} else if i == len(raw)-1 {
			// Keep the final observation so End() reflects the real
			// make-span of the search phase.
			tr.Record(p.Time, best)
		}
	}
	return tr
}

// bestReports pairs each collected bestMsg with its sender's TSW slot
// and the master-clock time it was received — the arrival latencies
// the adaptive tracker turns into throughput weights. The slot is read
// when the report is taken: a TSW lost and resurrected later in the
// same collection no longer maps its old task ID to any slot. It is -1
// for a sender that was already replaced when its report was taken.
type bestReports struct {
	msgs []bestMsg
	slot []int
	at   []float64
}

// tswSet is the master's view of its TSWs: identity, each slot's
// latest cumulative counters (carried over to a resurrected TSW, which
// resumes them from its checkpoint), and the checkpoint ledger with its
// respawn bookkeeping.
type tswSet struct {
	env    pvm.Env
	cfg    Config
	ids    []pvm.TaskID
	idx    map[pvm.TaskID]int
	latest []WorkerStats
	rec    *recovery
}

// collect gathers one bestMsg per TSW; in half-sync mode it forces the
// stragglers once half have reported. Recovery traffic — replacement
// requests, checkpoints, and TSW-loss notifications — interleaves with
// the reports and is serviced inline: a lost TSW is resurrected from
// its checkpoint mid-collection, and its successor's report is what
// completes the round.
func (ts *tswSet) collect(halfSync bool) bestReports {
	env := ts.env
	n := len(ts.ids)
	out := bestReports{msgs: make([]bestMsg, 0, n), slot: make([]int, 0, n), at: make([]float64, 0, n)}
	reported := make(map[pvm.TaskID]bool, n)
	take := func() {
		for {
			m := env.Recv(TagBest, TagRespawn, TagCheckpoint, pvm.TagExit)
			switch m.Tag {
			case TagRespawn:
				ts.rec.handleRespawn(m.From, ts.idx[m.From], m.Data.(respawnMsg))
				continue
			case TagCheckpoint:
				if i, ok := ts.idx[m.From]; ok {
					ck := m.Data.(tswCheckpoint)
					ts.rec.cks[i] = &ck
				}
				continue
			case pvm.TagExit:
				ts.onTSWExit(m.From)
				continue
			}
			reported[m.From] = true
			b := m.Data.(bestMsg)
			slot, ok := ts.idx[m.From]
			if ok {
				ts.rec.cks[slot] = &b.Checkpoint
			} else {
				slot = -1
			}
			out.msgs = append(out.msgs, b)
			out.slot = append(out.slot, slot)
			out.at = append(out.at, env.Now())
			return
		}
	}
	if halfSync && n > 1 {
		half := (n + 1) / 2
		for len(out.msgs) < half {
			take()
		}
		for _, id := range ts.ids {
			if !reported[id] {
				env.Send(id, TagReportNow, nil)
			}
		}
	}
	for len(out.msgs) < n {
		take()
	}
	return out
}

// onTSWExit resurrects a lost TSW from its last checkpoint. The
// successor re-runs the checkpointed round and reports it, so the
// collection in flight (or, if the dead TSW had already reported this
// round, the next one — reports are cumulative, a one-round pipeline
// lag is benign) still completes. A TSW lost before any checkpoint
// arrived is unrecoverable: the run is aborted, which returns the
// best-so-far with Interrupted set — exactly the pre-recovery
// behavior, now confined to the spawn-instant window.
func (ts *tswSet) onTSWExit(from pvm.TaskID) {
	i, ok := ts.idx[from]
	if !ok {
		return // a stale notification for an already-replaced TSW
	}
	id, err := ts.rec.respawnTSW(i)
	if err != nil {
		if !pvm.AbortRunOf(ts.env, err) {
			panic("core: task lost on a transport that cannot lose tasks")
		}
		return
	}
	delete(ts.idx, from)
	ts.idx[id] = i
	ts.ids[i] = id
}

// recovery is the master-side respawn bookkeeping: the latest
// checkpoint per TSW index, and per TSW the replacement CLWs spawned
// for its current incarnation — the workers besides its checkpoint's
// that are left to retire should it die.
type recovery struct {
	env       pvm.Env
	prob      Problem
	cfg       Config
	cks       []*tswCheckpoint
	spawned   [][]pvm.TaskID
	seq       int
	lost      int64
	respawned int64
	declining bool
}

func newRecovery(env pvm.Env, prob Problem, cfg Config) *recovery {
	return &recovery{
		env:     env,
		prob:    prob,
		cfg:     cfg,
		cks:     make([]*tswCheckpoint, cfg.TSWs),
		spawned: make([][]pvm.TaskID, cfg.TSWs),
	}
}

// handleRespawn spawns a replacement CLW for TSW i: the transport
// places it on live capacity — absorbed elastic spare slots first,
// else the least-loaded survivor — and the requesting TSW learns the
// new task's ID through the acknowledgement, seeding it at its next
// resync barrier. While shutting down, requests are declined instead.
func (r *recovery) handleRespawn(from pvm.TaskID, i int, rm respawnMsg) {
	if r.declining {
		r.env.Send(from, TagRespawnAck, respawnAckMsg{CLWIdx: rm.CLWIdx, ID: -1})
		return
	}
	r.seq++
	machine := pvm.RespawnSlotOf(r.env, r.cfg.clwMachine(i, rm.CLWIdx))
	id := r.env.SpawnSpec(fmt.Sprintf("clw%d-r%d", rm.CLWIdx, r.seq), machine, pvm.Spec{
		Kind: taskKindCLW,
		Data: clwSpec{},
		Fn: func(e pvm.Env) {
			clwRun(e, r.prob, r.cfg)
		},
	})
	r.spawned[i] = append(r.spawned[i], id)
	r.respawned++
	r.env.Send(from, TagRespawnAck, respawnAckMsg{CLWIdx: rm.CLWIdx, ID: id})
}

// respawnTSW resurrects TSW i from its last checkpoint on live
// capacity. First it stops every CLW the dead TSW may have left
// running: the checkpoint's live workers and every replacement spawned
// for this incarnation, attached or not (stopping a worker twice, or
// one that already died, is harmless). The successor spawns a fresh
// CLW set and is watched like the original.
func (r *recovery) respawnTSW(i int) (pvm.TaskID, error) {
	if i < 0 || i >= len(r.cks) || r.cks[i] == nil {
		return 0, fmt.Errorf("core: tsw %d lost before its first checkpoint; unrecoverable", i)
	}
	resume := r.cks[i]
	for _, s := range resume.CLWs {
		if s.State == clwSlotLive {
			r.env.Send(s.ID, TagStop, nil)
		}
	}
	for _, id := range r.spawned[i] {
		r.env.Send(id, TagStop, nil)
	}
	r.spawned[i] = nil
	r.seq++
	machine := pvm.RespawnSlotOf(r.env, r.cfg.tswMachine(i))
	master := r.env.Self()
	id := r.env.SpawnSpec(fmt.Sprintf("tsw%d-r%d", i, r.seq), machine, pvm.Spec{
		Kind: taskKindTSW,
		Data: tswSpec{Master: master, Resume: resume},
		Fn: func(e pvm.Env) {
			tswRun(e, r.prob, r.cfg, master, resume)
		},
	})
	pvm.NotifyExit(r.env, id)
	r.lost++
	r.respawned++
	return id, nil
}
