package cost

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"pts/internal/netlist"
	"pts/internal/rng"
)

// notState names the fields two evaluations of one permutation need not
// share: the immutable inputs (netlist, layout, cell widths, delay model
// and gate delays), per-worker scratch, and whether the worker still has
// to publish its state.
var notState = map[string]bool{
	"nl": true, "L": true, "cellWidth": true, "cfg": true, "gate": true,
	"importSeen": true, "batchKeys": true, "batchZeroW": true, "batch": true,
	"publishPending": true,
}

// stateDiff names the first field in which a and b differ, or returns
// "". It walks every field of the evaluator, its placement and its
// timing analyzer (net boxes, HPWL, row widths, both top-two rows, wire
// delays, arrival and required times, criticalities, critical path
// delay, goals, objectives and cost) save those notState names, so a
// field added later is compared too.
func stateDiff(a, b *Evaluator) string {
	return structDiff("", reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem())
}

func structDiff(prefix string, a, b reflect.Value) string {
	for i := range a.NumField() {
		name := a.Type().Field(i).Name
		if notState[name] {
			continue
		}
		fa, fb := a.Field(i), b.Field(i)
		if fa.Kind() == reflect.Pointer {
			if d := structDiff(prefix+name+".", fa.Elem(), fb.Elem()); d != "" {
				return d
			}
		} else if !sameValue(fa, fb) {
			return prefix + name
		}
	}
	return ""
}

// sameValue compares a and b exactly: floats bit for bit.
func sameValue(a, b reflect.Value) bool {
	switch {
	case a.Kind() == reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case a.Kind() == reflect.Struct:
		for i := range a.NumField() {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case a.Kind() == reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case a.CanInt():
		return a.Int() == b.Int()
	}
	panic("stateDiff: no comparison for kind " + a.Kind().String())
}

// freshState imports and times perm from scratch, bypassing the cache.
func freshState(t *testing.T, pp *PlacementProblem, perm []int32) *Evaluator {
	t.Helper()
	goals, err := pp.goalSet()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := pp.Placed(perm)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluatorWithGoals(pl, pp.cfg.Timing, goals)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// cached reports whether pp's state cache holds perm.
func cached(pp *PlacementProblem, perm []int32) bool {
	pp.cache.mu.Lock()
	defer pp.cache.mu.Unlock()
	return pp.cache.find(hashPerm(perm), perm) != nil
}

func mustNewState(t *testing.T, pp *PlacementProblem, perm []int32) Problem {
	t.Helper()
	st, err := pp.NewState(perm)
	if err != nil {
		t.Fatal(err)
	}
	return st.(Problem)
}

// TestCloneKeepsTimingAnalysis: a clone reports the same critical path
// and slacks as its original, not those of a never-run analysis.
func TestCloneKeepsTimingAnalysis(t *testing.T) {
	pp := NewPlacementProblem(netlist.MustBenchmark("c532"))
	st, err := pp.Initial(1)
	if err != nil {
		t.Fatal(err)
	}
	ev := st.(Problem).Ev
	c := ev.Clone()
	if ev.CriticalPath() <= 0 || c.CriticalPath() != ev.CriticalPath() {
		t.Fatalf("clone critical path %v, original %v", c.CriticalPath(), ev.CriticalPath())
	}
	for cell := range ev.NumCells() {
		if s, sc := ev.Timing().Slack(netlist.CellID(cell)), c.Timing().Slack(netlist.CellID(cell)); s != sc {
			t.Fatalf("cell %d: clone slack %v, original %v", cell, sc, s)
		}
	}
	if d := stateDiff(ev, c); d != "" {
		t.Fatalf("clone differs from original in %s", d)
	}
	c.ApplySwap(1, 2)
	c.Refresh()
	if stateDiff(ev, c) == "" {
		t.Fatal("clone shares state with its original")
	}
}

// TestRefreshedAndCachedStatesEqualImport: after random swap sequences,
// a refreshed state holds exactly what a fresh import of its
// permutation builds, field for field; and a Restore or NewState of that
// permutation, both served from the cache the refreshed state's
// Snapshot published to, hold it too and export the same permutation.
func TestRefreshedAndCachedStatesEqualImport(t *testing.T) {
	for _, circuit := range []string{"c532", "highway"} {
		t.Run(circuit, func(t *testing.T) {
			pp := NewPlacementProblem(netlist.MustBenchmark(circuit))
			init, err := pp.Initial(1)
			if err != nil {
				t.Fatal(err)
			}
			walker := mustNewState(t, pp, init.Snapshot())
			restorer := mustNewState(t, pp, init.Snapshot())
			r := rng.New(5)
			n := int(walker.Size())
			for seq := 0; seq < 200; seq++ {
				for k := 1 + r.Intn(60); k > 0; k-- {
					walker.ApplySwap(int32(r.Intn(n)), int32(r.Intn(n)))
				}
				walker.Refresh()
				perm := walker.Snapshot()
				fresh := freshState(t, pp, perm)
				if d := stateDiff(walker.Ev, fresh); d != "" {
					t.Fatalf("sequence %d: refreshed state differs from import in %s", seq, d)
				}
				if !cached(pp, perm) {
					t.Fatalf("sequence %d: Snapshot after Refresh did not publish", seq)
				}
				if err := restorer.Restore(perm); err != nil {
					t.Fatal(err)
				}
				if d := stateDiff(restorer.Ev, fresh); d != "" {
					t.Fatalf("sequence %d: Restore hit differs from import in %s", seq, d)
				}
				// The hit copies the exported permutation with the state,
				// so it exports what the import does: the snapshot.
				if got, want := restorer.Ev.ExportPerm(), fresh.ExportPerm(); !slices.Equal(got, want) || !slices.Equal(got, perm) {
					t.Fatalf("sequence %d: Restore hit exports %v, import %v, snapshot %v", seq, got, want, perm)
				}
				if d := stateDiff(mustNewState(t, pp, perm).Ev, fresh); d != "" {
					t.Fatalf("sequence %d: NewState hit differs from import in %s", seq, d)
				}
			}
			perm := walker.Snapshot()
			if allocs := testing.AllocsPerRun(10, func() { _ = restorer.Restore(perm) }); allocs != 0 {
				t.Errorf("Restore hit allocates %v times", allocs)
			}
		})
	}
}

// TestRefreshPublishesOnlyWhatIsSnapshotted: a refreshed state reaches
// the cache through its next Snapshot, and not at all when the search
// swaps on first, as it does after its periodic mid-round refreshes.
func TestRefreshPublishesOnlyWhatIsSnapshotted(t *testing.T) {
	pp := NewPlacementProblem(netlist.MustBenchmark("highway"))
	init, err := pp.Initial(1)
	if err != nil {
		t.Fatal(err)
	}
	st := mustNewState(t, pp, init.Snapshot())
	st.ApplySwap(0, 1)
	st.Refresh()
	mid := st.Ev.ExportPerm()
	st.ApplySwap(2, 3)
	if cached(pp, mid) {
		t.Fatal("Refresh published before any Snapshot")
	}
	if cached(pp, st.Snapshot()) || cached(pp, mid) {
		t.Fatal("a state swapped after its refresh was published")
	}
	st.Refresh()
	if perm := st.Snapshot(); !cached(pp, perm) {
		t.Fatal("Snapshot of a refreshed state did not publish it")
	}
}

// TestInitialResetsCache: a second run's goals differ, so a permutation
// cached in the first run must be evaluated afresh in the second.
func TestInitialResetsCache(t *testing.T) {
	pp := NewPlacementProblem(netlist.MustBenchmark("c532"))
	first, err := pp.Initial(1)
	if err != nil {
		t.Fatal(err)
	}
	perm := first.Snapshot()
	if _, err := pp.Initial(2); err != nil {
		t.Fatal(err)
	}
	if cached(pp, perm) {
		t.Fatal("second Initial kept the first run's initial state")
	}
	if d := stateDiff(mustNewState(t, pp, perm).Ev, freshState(t, pp, perm)); d != "" {
		t.Fatalf("state of the first run's permutation differs from import in %s", d)
	}
}

// TestCacheEvictsOldest: the cache holds at most cacheCap states and
// replaces the oldest first.
func TestCacheEvictsOldest(t *testing.T) {
	pp := NewPlacementProblem(netlist.MustBenchmark("highway"))
	init, err := pp.Initial(1)
	if err != nil {
		t.Fatal(err)
	}
	first := init.Snapshot()
	st := mustNewState(t, pp, first)
	for i := int32(1); i < cacheCap; i++ {
		st.ApplySwap(0, i)
		st.Refresh()
		st.Snapshot()
	}
	if !cached(pp, first) {
		t.Fatal("initial state evicted from a cache that is not yet full")
	}
	st.ApplySwap(0, cacheCap)
	st.Refresh()
	if last := st.Snapshot(); cached(pp, first) || !cached(pp, last) {
		t.Fatal("publishing into a full cache did not replace the oldest state")
	}
	if len(pp.cache.entries) != cacheCap {
		t.Fatalf("cache grew to %d entries, cap %d", len(pp.cache.entries), cacheCap)
	}
}

// TestCacheConcurrentUse shares one run's cache between goroutines, as
// real-time workers do: one refreshes and publishes (by a Snapshot) two
// alternating
// permutations while the others Restore and NewState those and
// permutations of their own. Every state handed out must equal a fresh
// import. Run it with -race.
func TestCacheConcurrentUse(t *testing.T) {
	pp := NewPlacementProblem(netlist.MustBenchmark("c532"))
	init, err := pp.Initial(1)
	if err != nil {
		t.Fatal(err)
	}
	const readers, rounds = 3, 20
	base := init.Snapshot()
	swapped := mustNewState(t, pp, base)
	swapped.ApplySwap(3, 7)
	perms := [][]int32{base, swapped.Snapshot()}
	for i := range readers {
		own := mustNewState(t, pp, base)
		own.ApplySwap(int32(10+i), int32(100+i))
		perms = append(perms, own.Snapshot())
	}
	want := make([]*Evaluator, len(perms))
	for i, p := range perms {
		want[i] = freshState(t, pp, p)
	}
	check := func(what string, i int, got *Evaluator) {
		if d := stateDiff(got, want[i]); d != "" {
			t.Errorf("%s of permutation %d differs from import in %s", what, i, d)
		}
	}

	var wg sync.WaitGroup
	wg.Add(1 + readers)
	go func() {
		defer wg.Done()
		st, err := pp.NewState(base)
		if err != nil {
			t.Error(err)
			return
		}
		for range 2 * rounds {
			st.ApplySwap(3, 7)
			st.(Problem).Refresh()
			st.Snapshot()
		}
	}()
	for g := range readers {
		go func() {
			defer wg.Done()
			st, err := pp.NewState(base)
			if err != nil {
				t.Error(err)
				return
			}
			restorer := st.(Problem)
			for k := range rounds {
				i := []int{0, 1, 2 + g}[k%3]
				if err := restorer.Restore(perms[i]); err != nil {
					t.Error(err)
					return
				}
				check("Restore", i, restorer.Ev)
				spawned, err := pp.NewState(perms[i])
				if err != nil {
					t.Error(err)
					return
				}
				check("NewState", i, spawned.(Problem).Ev)
			}
		}()
	}
	wg.Wait()
}
