package core

import (
	"context"
	"reflect"
	"testing"

	"pts/internal/cluster"
	"pts/internal/store"
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
