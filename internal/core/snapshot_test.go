package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"reflect"
	"testing"

	"pts/internal/cluster"
	"pts/internal/pvm"
	"pts/internal/store"
	"pts/internal/tabu"
)

// snapCfg is a small store-backed run for snapshot tests: two TSWs of
// one CLW each, three rounds.
func snapCfg(st store.Store) Config {
	cfg := quickCfg()
	cfg.TSWs, cfg.CLWs = 2, 1
	cfg.GlobalIters, cfg.LocalIters = 3, 6
	cfg.Store, cfg.RunID = st, "t"
	return cfg
}

// barrierSnapshot returns the bytes snapCfg's run persists at its
// first barrier, by cancelling the run from that round's progress
// callback.
func barrierSnapshot(t testing.TB) []byte {
	t.Helper()
	st := store.NewMem()
	cfg := snapCfg(st)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Progress = func(s Snapshot) {
		if s.Round == 1 {
			cancel()
		}
	}
	if _, err := RunProblem(ctx, highwayProblem(), cluster.Homogeneous(8, 1), cfg, Virtual); err != nil {
		t.Fatal(err)
	}
	b, ok, err := st.Get(cfg.runKey())
	if err != nil || !ok {
		t.Fatalf("no snapshot after the first barrier (ok=%v, err=%v)", ok, err)
	}
	return b
}

// runOverSnapshot runs snapCfg over a store holding b as its snapshot.
func runOverSnapshot(t testing.TB, b []byte) *Result {
	t.Helper()
	st := store.NewMem()
	cfg := snapCfg(st)
	if b != nil {
		if err := st.Put(cfg.runKey(), b); err != nil {
			t.Fatal(err)
		}
	}
	res, err := RunProblem(context.Background(), highwayProblem(), cluster.Homogeneous(8, 1), cfg, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDurableCorruptSnapshotRunsFresh: a snapshot that decodes but
// holds a solution the problem refuses is treated as absent, so
// the run starts over and equals a fresh run bit for bit instead of
// crashing the worker that builds a state over it.
func TestDurableCorruptSnapshotRunsFresh(t *testing.T) {
	fresh := runOverSnapshot(t, nil)
	b := barrierSnapshot(t)
	if reflect.DeepEqual(runOverSnapshot(t, b), fresh) {
		t.Fatal("the uncorrupted snapshot did not resume")
	}
	good, err := decodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(good.Checkpoints) == 0 || !good.Checkpoints[0].OK {
		t.Fatal("barrier snapshot carries no checkpoint to corrupt")
	}
	corruptions := map[string]func(*masterSnapshot){
		"best perm":       func(s *masterSnapshot) { s.BestPerm[1] = s.BestPerm[0] },
		"checkpoint perm": func(s *masterSnapshot) { s.Checkpoints[0].CK.Perm[1] = s.Checkpoints[0].CK.Perm[0] },
		"clw range":       func(s *masterSnapshot) { s.Checkpoints[0].CK.CLWs[0].RangeHi = s.Size + 5 },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			snap, _ := decodeSnapshot(b)
			corrupt(snap)
			b, err := encodeSnapshot(snap)
			if err != nil {
				t.Fatal(err)
			}
			if got := runOverSnapshot(t, b); !reflect.DeepEqual(got, fresh) {
				t.Fatalf("run over a corrupt snapshot differs from a fresh run:\ngot  %+v\nwant %+v", got, fresh)
			}
		})
	}
}

// The checkpoint layout of snapshots stored before every resumed TSW
// spawned a fresh CLW set: a third slot state (2, a replacement parked
// unseeded), the master's hand-over of replacements (Extra) and the
// master-restart mark (Restart).
type (
	oldCLWSlot struct {
		ID               pvm.TaskID
		State            int
		RangeLo, RangeHi int32
		Trials           int
	}
	oldRespawnEntry struct {
		CLWIdx int
		ID     pvm.TaskID
	}
	oldTSWCheckpoint struct {
		WorkerIdx       int
		Iter            int64
		Best            float64
		BestPerm        []int32
		Perm            []int32
		Tabu            []tabu.Entry
		Freq            []int64
		RandSeed        uint64
		Stats           WorkerStats
		DivLo           int32
		DivHi           int32
		CLWs            []oldCLWSlot
		AcceptedRefresh int
		Extra           []oldRespawnEntry
		Restart         bool
		SkipRound       bool
	}
	oldSnapCheckpoint struct {
		OK bool
		CK oldTSWCheckpoint
	}
	oldMasterSnapshot struct {
		Problem         string
		Size            int32
		Seed            uint64
		Round           int
		BestCost        float64
		BestPerm        []int32
		BestTabu        []tabu.Entry
		Checkpoints     []oldSnapCheckpoint
		Latest          []WorkerStats
		Lost, Respawned int64
	}
)

// oldLayout re-encodes snapshot bytes b in the old checkpoint layout,
// with every checkpoint marked Restart and handed one replacement in
// Extra. With pending set, TSW 0's first CLW slot is the parked
// replacement.
func oldLayout(t testing.TB, b []byte, pending bool) []byte {
	t.Helper()
	snap, err := decodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	old := oldMasterSnapshot{
		Problem: snap.Problem, Size: snap.Size, Seed: snap.Seed, Round: snap.Round,
		BestCost: snap.BestCost, BestPerm: snap.BestPerm, BestTabu: snap.BestTabu,
		Latest: snap.Latest, Lost: snap.Lost, Respawned: snap.Respawned,
	}
	for _, c := range snap.Checkpoints {
		ck := c.CK
		oc := oldTSWCheckpoint{
			WorkerIdx: ck.WorkerIdx, Iter: ck.Iter, Best: ck.Best, BestPerm: ck.BestPerm, Perm: ck.Perm,
			Tabu: ck.Tabu, Freq: ck.Freq, RandSeed: ck.RandSeed, Stats: ck.Stats, DivLo: ck.DivLo, DivHi: ck.DivHi,
			AcceptedRefresh: ck.AcceptedRefresh, SkipRound: ck.SkipRound,
			Extra: []oldRespawnEntry{{CLWIdx: 0, ID: 77}}, Restart: true,
		}
		for _, s := range ck.CLWs {
			oc.CLWs = append(oc.CLWs, oldCLWSlot{ID: s.ID, State: int(s.State), RangeLo: s.RangeLo, RangeHi: s.RangeHi, Trials: s.Trials})
		}
		old.Checkpoints = append(old.Checkpoints, oldSnapCheckpoint{OK: c.OK, CK: oc})
	}
	if pending {
		old.Checkpoints[0].CK.CLWs[0].State, old.Checkpoints[0].CK.CLWs[0].ID = 2, 77
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOldSnapshotLayoutResumes: a snapshot stored in the old checkpoint
// layout still decodes and resumes. Without a parked replacement it
// resumes exactly like the same snapshot in the current layout; a
// parked replacement's slot reads as dead, and the run still completes.
func TestOldSnapshotLayoutResumes(t *testing.T) {
	b := barrierSnapshot(t)
	want, err := decodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Checkpoints) == 0 || !want.Checkpoints[0].OK || len(want.Checkpoints[0].CK.CLWs) == 0 {
		t.Fatal("barrier snapshot carries no CLW slot to mark pending")
	}
	old := oldLayout(t, b, false)
	got, err := decodeSnapshot(old)
	if err != nil {
		t.Fatalf("old layout no longer decodes: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("old layout decodes to\n%+v\nwant\n%+v", got, want)
	}
	if res, ref := runOverSnapshot(t, old), runOverSnapshot(t, b); !reflect.DeepEqual(res, ref) {
		t.Fatalf("run over the old layout differs from the current one:\ngot  %+v\nwant %+v", res, ref)
	}

	withPending := oldLayout(t, b, true)
	snap, err := decodeSnapshot(withPending)
	if err != nil {
		t.Fatalf("old layout with a pending slot no longer decodes: %v", err)
	}
	if sl := snap.Checkpoints[0].CK.CLWs[0]; sl.State == clwSlotLive || sl.State == clwSlotDead {
		t.Fatalf("pending slot decoded as state %d, want the old value 2 kept", sl.State)
	}
	res := runOverSnapshot(t, withPending)
	if reflect.DeepEqual(res, runOverSnapshot(t, nil)) {
		t.Fatal("old layout with a pending slot was refused: the run equals a fresh one")
	}
	if rounds := snapCfg(nil).GlobalIters; res.Interrupted || res.Rounds != rounds {
		t.Fatalf("run over the old layout with a pending slot: Interrupted=%v after %d of %d rounds",
			res.Interrupted, res.Rounds, rounds)
	}
}

// FuzzLoadSnapshot: no stored bytes make loadSnapshot, or a run over
// the store, panic, and a snapshot loadSnapshot refuses leaves the run
// exactly a fresh one. Bytes that do not decode skip the run: nothing
// of them reaches it.
func FuzzLoadSnapshot(f *testing.F) {
	b := barrierSnapshot(f)
	f.Add(b)
	for _, n := range []int{0, 1, 16, len(b) / 2, len(b) - 1} {
		f.Add(b[:n])
	}
	f.Add(oldLayout(f, b, true))
	fresh := runOverSnapshot(f, nil)
	prob := highwayProblem()
	if _, err := prob.Initial(snapCfg(nil).Seed); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		st := store.NewMem()
		cfg := snapCfg(st)
		if err := st.Put(cfg.runKey(), b); err != nil {
			t.Fatal(err)
		}
		usable := loadSnapshot(prob, cfg) != nil
		if _, err := decodeSnapshot(b); err != nil {
			return
		}
		res := runOverSnapshot(t, b)
		if !usable && !reflect.DeepEqual(res, fresh) {
			t.Fatalf("refused snapshot changed the run:\ngot  %+v\nwant %+v", res, fresh)
		}
	})
}
