package core

import (
	"pts/internal/pvm"
	"pts/internal/tabu"
)

// Message tags of the PTS protocol.
const (
	// TagInit carries the initial solution and worker range
	// (master→TSW, TSW→CLW). A CLW receives exactly one, from the TSW
	// that becomes its parent.
	TagInit pvm.Tag = iota + 1
	// TagSearch asks a CLW to build one compound move (TSW→CLW).
	TagSearch
	// TagCandidate returns a CLW's compound move (CLW→TSW).
	TagCandidate
	// TagSync tells CLWs which move won this iteration so they undo
	// their tentative move and apply the winner; a CLW whose own move
	// won keeps it as it is (TSW→CLW).
	TagSync
	// TagNewState replaces a CLW's whole solution at a global
	// synchronization (TSW→CLW).
	TagNewState
	// TagBest reports a TSW's best solution, cost and tabu list
	// (TSW→master).
	TagBest
	// TagGlobal broadcasts the global best solution and its tabu list
	// (master→TSW).
	TagGlobal
	// TagReportNow forces a child to report its best immediately — the
	// heterogeneity adaptation (master→TSW, TSW→CLW).
	TagReportNow
	// TagStop shuts a worker down (parent→child).
	TagStop
	// TagStats returns a worker's counters at shutdown (child→parent).
	TagStats
	// TagRebalance re-partitions a CLW's element range and per-step
	// trial budget (TSW→CLW). Sent only at the resync barrier —
	// immediately before the TagNewState that replaces the CLW's whole
	// solution — so candidate semantics stay well-defined: a range never
	// changes while candidates built against it are in flight.
	TagRebalance
	// TagRespawn asks the master to spawn a replacement for a CLW whose
	// hosting process died (TSW→master). The master places the
	// replacement on live capacity — absorbed elastic spare slots
	// first, else the least-loaded survivor — and answers with
	// TagRespawnAck. Sent only in adaptive runs with respawn enabled.
	TagRespawn
	// TagRespawnAck returns the replacement CLW's task ID, or a
	// negative ID when the master declined — the run was already
	// shutting down (master→TSW). The TSW seeds the replacement with
	// TagInit at its next resync barrier.
	TagRespawnAck
	// TagCheckpoint carries a TSW's recovery checkpoint out of band
	// (TSW→master): sent once right after the TSW spawned its CLWs —
	// fresh or resumed — so the master can resurrect a TSW lost before
	// its first report and retire the CLWs it leaves behind. Subsequent
	// checkpoints piggyback on TagBest instead.
	TagCheckpoint
)

// Tag sets of the receives the search loops make at every step. A
// variadic call through the pvm.Env interface heap-allocates its tag
// slice; passing a shared slice does not.
var (
	clwLoopTags   = []pvm.Tag{TagSearch, TagSync, TagNewState, TagStop, TagReportNow, TagRebalance}
	reportNowTags = []pvm.Tag{TagReportNow}
	candidateTags = []pvm.Tag{TagCandidate, pvm.TagExit}
)

// initMsg is the TagInit payload. Trials, when positive, overrides the
// worker's per-step trial budget (the adaptive scheduler's
// share-proportional budget); 0 keeps Config.Trials. Reseed
// replaces the receiving CLW's random stream: a replacement attached
// after the barrier's TagNewState went out gets the same per-slot
// barrier draw it would have received there. At spawn it is 0 and
// never drawn from — the next barrier reseeds the worker before it
// searches. TSWs ignore it.
type initMsg struct {
	Perm             []int32
	RangeLo, RangeHi int32
	WorkerIdx        int
	Trials           int
	Reseed           uint64
}

// PVMItems models the message size for latency purposes.
//
// Note on the size model: the adaptive-scheduling and recovery fields
// (initMsg.Trials/Reseed, candMsg.CumTrials/At, stateMsg.Reseed,
// globalMsg range updates, bestMsg/WorkerStats scheduler counters, and
// the tswCheckpoint on bestMsg and TagCheckpoint) are deliberately
// excluded from every PVMItems formula. The formulas calibrate the
// virtual runtime against the paper's 2003-era message costs, for a
// protocol that carried none of this state. The small fields are far
// below the model's resolution; the checkpoint is not (it copies the
// solution, tabu list and frequency table), so modelled communication
// undercounts what a run actually sends by that much.
func (m initMsg) PVMItems() int { return len(m.Perm) + 4 }

// candMsg is the TagCandidate payload. CumTrials and At piggyback the
// CLW's cumulative charged trials and its clock at send time — the
// throughput observations the adaptive scheduler folds into its
// per-worker weights (modeled time under the virtual runtime, so
// adaptive decisions stay deterministic).
type candMsg struct {
	Move      tabu.CompoundMove
	Forced    bool // the move was truncated by TagReportNow
	CumTrials int64
	At        float64
}

func (m candMsg) PVMItems() int { return 2*len(m.Move.Swaps) + 3 }

// rebalanceMsg is the TagRebalance payload: the CLW's new element
// range and per-step trial budget, effective at the resync barrier it
// is sent at.
type rebalanceMsg struct {
	RangeLo, RangeHi int32
	Trials           int
}

func (m rebalanceMsg) PVMItems() int { return 3 }

// respawnMsg is the TagRespawn payload: which of the sending TSW's CLW
// slots died.
type respawnMsg struct {
	CLWIdx int
}

func (m respawnMsg) PVMItems() int { return 1 }

// respawnAckMsg is the TagRespawnAck payload: the replacement task for
// the given CLW slot, or ID < 0 when the master declined (the run is
// shutting down).
type respawnAckMsg struct {
	CLWIdx int
	ID     pvm.TaskID
}

func (m respawnAckMsg) PVMItems() int { return 2 }

// clwSlotState is one CLW's standing in a checkpoint. The values are
// persisted in run snapshots, so they never change; a value a resumed
// TSW does not know (an unseeded replacement, in older snapshots) reads
// as dead.
type clwSlotState int

const (
	// clwSlotDead: the slot has no attached worker — it died, or its
	// replacement is not seeded yet.
	clwSlotDead clwSlotState = iota
	// clwSlotLive: the slot's worker is attached and searching.
	clwSlotLive
)

// clwSlot is one CLW's record in a checkpoint: its range and budget,
// which a resumed TSW spawns a fresh worker over, and the task ID the
// master stops when it retires the dead TSW's workers.
type clwSlot struct {
	ID               pvm.TaskID
	State            clwSlotState
	RangeLo, RangeHi int32
	Trials           int
}

// tswCheckpoint is a TSW's recovery state: everything a replacement
// TSW needs to continue the search where the dead one left off. It
// rides on every bestMsg and once, as soon as the TSW has spawned its
// CLWs, as a bare TagCheckpoint — so the master can always resurrect a
// lost TSW and knows every CLW to retire with it.
//
// RandSeed is a fresh draw from the checkpointing TSW's own stream,
// which the TSW then continues from itself: a resumed TSW deriving its
// generator from it draws exactly the numbers the uninterrupted one
// does.
type tswCheckpoint struct {
	WorkerIdx int
	Iter      int64
	Best      float64
	BestPerm  []int32
	Perm      []int32
	Tabu      []tabu.Entry
	Freq      []int64
	RandSeed  uint64
	Stats     WorkerStats
	DivLo     int32
	DivHi     int32
	CLWs      []clwSlot
	// AcceptedRefresh is the accepted-move count toward the TSW's next
	// full state refresh (one every refreshEvery accepted moves). It
	// carries across rounds, so a successor must continue it mid-cycle
	// — resetting it would shift every later refresh point and (because
	// a refresh flushes the incremental evaluator's float accumulation)
	// fork a resume off the uninterrupted trajectory.
	AcceptedRefresh int
	// SkipRound marks that the checkpointed round is already complete
	// and folded into the master's snapshot: the resumed TSW skips
	// straight to the verdict wait for the master's kick-off broadcast
	// instead of re-running (and re-reporting) it. Set only on the
	// checkpoints handed to TSWs spawned at master resume — a TSW lost
	// *during* the resumed run re-runs its checkpointed round like any
	// mid-run resurrection.
	SkipRound bool
}

// PVMItems: checkpoints are recovery state the paper's protocol does
// not carry, so they are excluded from the calibrated latency model
// like every recovery piggyback (see the note on initMsg.PVMItems);
// the bare TagCheckpoint message counts as the minimum one item.
func (c tswCheckpoint) PVMItems() int { return 1 }

// syncMsg is the TagSync payload: the winning move of the iteration
// (possibly empty when no move was taken).
type syncMsg struct {
	Chosen tabu.CompoundMove
}

func (m syncMsg) PVMItems() int { return 2*len(m.Chosen.Swaps) + 3 }

// stateMsg is the TagNewState payload. Reseed replaces the receiving
// CLW's random stream: the TSW draws one reseed per CLW slot from its
// own stream at every resync barrier — exactly Config.CLWs draws in
// slot order, regardless of slot liveness, so the TSW's stream
// consumption is independent of losses — making every CLW stream a
// pure function of the checkpointed TSW state rather than of the
// spawn path. That is what lets a run resumed from a master snapshot
// reproduce the uninterrupted run bit-for-bit.
type stateMsg struct {
	Perm   []int32
	Reseed uint64
}

// PVMItems excludes the reseed like every piggyback field (see the
// note on initMsg.PVMItems).
func (m stateMsg) PVMItems() int { return len(m.Perm) }

// improvement is one incumbent improvement a TSW observed locally:
// the virtual time and the new best cost.
type improvement struct {
	Time float64
	Cost float64
}

// bestMsg is the TagBest payload: the paper's TSW→master exchange is
// the best solution plus the associated tabu list. Points carries the
// TSW's incumbent improvements since its previous report, so the master
// can build a fine-grained best-cost-versus-time envelope; Stats is the
// TSW's cumulative counters, feeding the per-round progress snapshots.
type bestMsg struct {
	Cost   float64
	Perm   []int32
	Tabu   []tabu.Entry
	Points []improvement
	Forced bool
	Stats  WorkerStats
	// Checkpoint is the TSW's piggybacked recovery state (excluded
	// from the latency model like every recovery field).
	Checkpoint tswCheckpoint
}

func (m bestMsg) PVMItems() int {
	return len(m.Perm) + 3*len(m.Tabu) + 4*len(m.Points) + 4 + m.Stats.PVMItems()
}

// globalMsg is the TagGlobal payload. When Rebalance is set the
// receiving TSW also adopts [RangeLo, RangeHi) as its new
// diversification range — the master-level half of the adaptive
// scheduler, re-partitioning the element space over TSWs by their
// observed iteration throughput.
type globalMsg struct {
	Perm             []int32
	Tabu             []tabu.Entry
	RangeLo, RangeHi int32
	Rebalance        bool
}

func (m globalMsg) PVMItems() int { return len(m.Perm) + 3*len(m.Tabu) }

// WorkerStats counts one worker's search events; workers aggregate
// their children's stats into their own before reporting.
type WorkerStats struct {
	LocalIters       int64
	CandidatesBuilt  int64
	TrialsCharged    int64
	MovesAccepted    int64
	TabuRejected     int64
	Aspirations      int64
	Fallbacks        int64
	ForcedReports    int64
	Diversifications int64
	// Rebalances counts adopted adaptive re-partitions (TSW-level for
	// CLW ranges, master-level rebalances are not counted here);
	// WorkersLost counts workers written off after their hosting
	// process died (CLWs by their TSW, TSWs by the master);
	// WorkersRespawned counts the replacements the master spawned for
	// them (CLW replacements plus TSW resurrections from checkpoint).
	// All three stay 0 in static mode.
	Rebalances       int64
	WorkersLost      int64
	WorkersRespawned int64
}

// add accumulates other into s.
func (s *WorkerStats) add(other WorkerStats) {
	s.LocalIters += other.LocalIters
	s.CandidatesBuilt += other.CandidatesBuilt
	s.TrialsCharged += other.TrialsCharged
	s.MovesAccepted += other.MovesAccepted
	s.TabuRejected += other.TabuRejected
	s.Aspirations += other.Aspirations
	s.Fallbacks += other.Fallbacks
	s.ForcedReports += other.ForcedReports
	s.Diversifications += other.Diversifications
	s.Rebalances += other.Rebalances
	s.WorkersLost += other.WorkersLost
	s.WorkersRespawned += other.WorkersRespawned
}

// PVMItems stays at the original 9-field size: see the note on
// initMsg.PVMItems — the scheduler counters ride free in the latency
// model to preserve the calibrated reference timings.
func (s WorkerStats) PVMItems() int { return 9 }
