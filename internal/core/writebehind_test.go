package core

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pts/internal/cluster"
	"pts/internal/store"
)

// heldStore is a MemStore that logs every run-snapshot write and can
// slow them down: with hold set, the first "runs/" Put closes holding
// and waits until hold is closed; every "runs/" Put then sleeps delay
// before it lands. The log names each landed Put by its snapshot's
// round ("put 3") and each Delete ("delete"), in landing order, and
// keeps each landed snapshot's bytes by round.
type heldStore struct {
	*store.MemStore
	hold    chan struct{}
	holding chan struct{}
	delay   time.Duration

	mu    sync.Mutex
	held  bool
	ops   []string
	round []int
	vals  map[int][]byte
}

func newHeldStore(hold bool, delay time.Duration) *heldStore {
	h := &heldStore{MemStore: store.NewMem(), delay: delay, vals: map[int][]byte{}}
	if hold {
		h.hold, h.holding = make(chan struct{}), make(chan struct{})
	}
	return h
}

func (h *heldStore) Put(key string, value []byte) error {
	if !strings.HasPrefix(key, "runs/") {
		return h.MemStore.Put(key, value)
	}
	h.mu.Lock()
	first := h.hold != nil && !h.held
	h.held = true
	h.mu.Unlock()
	if first {
		close(h.holding)
		<-h.hold
	}
	time.Sleep(h.delay)
	snap, err := decodeSnapshot(value)
	if err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ops = append(h.ops, fmt.Sprintf("put %d", snap.Round))
	h.round = append(h.round, snap.Round)
	h.vals[snap.Round] = slices.Clone(value)
	return h.MemStore.Put(key, value)
}

func (h *heldStore) Delete(key string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ops = append(h.ops, "delete")
	return h.MemStore.Delete(key)
}

// log returns the landed operations and the rounds of the landed Puts.
func (h *heldStore) log() (ops []string, rounds []int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Clone(h.ops), slices.Clone(h.round)
}

// values returns the landed snapshots' bytes by round.
func (h *heldStore) values() map[int][]byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	return maps.Clone(h.vals)
}

// TestRepeatedRunsStoreIdenticalSnapshots: fixed-seed virtual runs
// repeat their trajectory, and so must the bytes they store — every
// round two runs both wrote holds the same snapshot value. The write
// behind coalesces rounds by timing, but the last round before the
// final barrier always lands, so every pair of runs compares at least
// one round.
func TestRepeatedRunsStoreIdenticalSnapshots(t *testing.T) {
	var first map[int][]byte
	for run := 0; run < 3; run++ {
		h := newHeldStore(false, 0)
		cfg := durableCfg(h)
		if _, err := RunProblem(context.Background(), highwayProblem(), cluster.Homogeneous(12, 1), cfg, Virtual); err != nil {
			t.Fatal(err)
		}
		vals := h.values()
		if run == 0 {
			first = vals
			continue
		}
		compared := 0
		for round, v := range vals {
			if w, ok := first[round]; ok {
				compared++
				if !bytes.Equal(v, w) {
					t.Fatalf("run %d stored other bytes for round %d than run 0", run, round)
				}
			}
		}
		if compared == 0 {
			t.Fatalf("runs 0 and %d stored no common round: %v and %v", run, slices.Sorted(maps.Keys(first)), slices.Sorted(maps.Keys(vals)))
		}
	}
}

// checkCleanLog asserts a clean run's write log: at most
// GlobalIters-1 Puts, in round order, none of the last barrier, and
// the Delete last of all.
func checkCleanLog(t *testing.T, h *heldStore, cfg Config) {
	t.Helper()
	ops, rounds := h.log()
	if len(rounds) == 0 || len(rounds) > cfg.GlobalIters-1 {
		t.Errorf("clean run landed %d snapshot writes %v, want 1..%d", len(rounds), ops, cfg.GlobalIters-1)
	}
	for i, r := range rounds {
		if r >= cfg.GlobalIters {
			t.Errorf("clean run wrote the last barrier's snapshot (round %d): %v", r, ops)
		}
		if i > 0 && r <= rounds[i-1] {
			t.Errorf("snapshot writes out of round order: %v", ops)
		}
	}
	if len(ops) == 0 || ops[len(ops)-1] != "delete" {
		t.Errorf("the Delete is not the last write: %v", ops)
	}
	if _, ok, _ := h.Get(cfg.runKey()); ok {
		t.Error("clean run left a snapshot")
	}
}

// TestSnapshotWriteBehind: the master does not wait for a snapshot
// write — every later round's progress arrives while the first write
// is held — but RunProblem does: it returns only once the held write
// and the newest snapshot queued behind it have landed, and its Delete
// is the last write of the run.
func TestSnapshotWriteBehind(t *testing.T) {
	h := newHeldStore(true, 0)
	cfg := durableCfg(h)
	rounds := make(chan int, cfg.GlobalIters)
	cfg.Progress = func(s Snapshot) { rounds <- s.Round }
	done := make(chan error, 1)
	go func() {
		_, err := RunProblem(context.Background(), highwayProblem(), cluster.Homogeneous(12, 1), cfg, Virtual)
		done <- err
	}()
	var once sync.Once
	release := func() { once.Do(func() { close(h.hold) }) }
	defer release()

	<-h.holding
	for want := 1; want <= cfg.GlobalIters; want++ {
		select {
		case got := <-rounds:
			if got != want {
				t.Fatalf("progress for round %d, want %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d's progress never arrived while the first snapshot write was held", want)
		}
	}
	select {
	case <-done:
		t.Fatal("RunProblem returned while a snapshot write was still pending")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	checkCleanLog(t, h, cfg)
}

// TestSnapshotWriteBehindCleanRun: with every write slower than a
// round, a clean run still writes snapshots in round order, never the
// last barrier's, and ends on its Delete.
func TestSnapshotWriteBehindCleanRun(t *testing.T) {
	h := newHeldStore(false, 2*time.Millisecond)
	cfg := durableCfg(h)
	res, err := RunProblem(context.Background(), highwayProblem(), cluster.Homogeneous(12, 1), cfg, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted || res.Rounds != cfg.GlobalIters {
		t.Fatalf("clean run: interrupted=%v rounds=%d", res.Interrupted, res.Rounds)
	}
	checkCleanLog(t, h, cfg)
}

// TestSnapshotWriteBehindCancel: a run cancelled from round g's
// progress callback has round g's snapshot in the store when
// RunProblem returns, however slow the write, and the resume from it
// equals the uninterrupted run bit for bit.
func TestSnapshotWriteBehindCancel(t *testing.T) {
	clus := cluster.Homogeneous(12, 1)
	ref, err := RunProblem(context.Background(), highwayProblem(), clus, durableCfg(store.NewMem()), Virtual)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []int{1, 3, 5} {
		h := newHeldStore(false, 5*time.Millisecond)
		cfg := durableCfg(h)
		ctx, cancel := context.WithCancel(context.Background())
		cfg.Progress = func(s Snapshot) {
			if s.Round == g {
				cancel()
			}
		}
		cut, err := RunProblem(ctx, highwayProblem(), clus, cfg, Virtual)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if !cut.Interrupted || cut.Rounds != g {
			t.Fatalf("g=%d: interrupted=%v after %d rounds", g, cut.Interrupted, cut.Rounds)
		}
		b, ok, err := h.Get(cfg.runKey())
		if err != nil || !ok {
			t.Fatalf("g=%d: no snapshot when RunProblem returned (ok=%v, err=%v)", g, ok, err)
		}
		snap, err := decodeSnapshot(b)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Round != g {
			ops, _ := h.log()
			t.Fatalf("g=%d: stored snapshot is round %d's (writes %v)", g, snap.Round, ops)
		}

		res, err := RunProblem(context.Background(), highwayProblem(), clus, durableCfg(h), Virtual)
		if err != nil {
			t.Fatal(err)
		}
		if res.Interrupted || res.Rounds != cfg.GlobalIters {
			t.Fatalf("g=%d: resume interrupted=%v rounds=%d", g, res.Interrupted, res.Rounds)
		}
		if res.BestCost != ref.BestCost || !slices.Equal(res.BestPerm, ref.BestPerm) {
			t.Fatalf("g=%d: resumed best %v differs from the uninterrupted run's %v", g, res.BestCost, ref.BestCost)
		}
		if _, ok, _ := h.Get(cfg.runKey()); ok {
			t.Fatalf("g=%d: snapshot survived the resumed run's completion", g)
		}
	}
}
