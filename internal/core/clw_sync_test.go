package core

import (
	"slices"
	"testing"

	"pts/internal/cluster"
	"pts/internal/pvm"
	"pts/internal/qap"
	"pts/internal/tabu"
)

// countingState counts the ApplySwap calls made on a worker state.
type countingState struct {
	State
	applies int
}

func (c *countingState) ApplySwap(a, b int32) {
	c.applies++
	c.State.ApplySwap(a, b)
}

// countingProblem hands out countingStates and keeps every one it
// made, in creation order.
type countingProblem struct {
	qapTestProblem
	states []*countingState
}

func (p *countingProblem) NewState(snap []int32) (State, error) {
	st, err := p.qapTestProblem.NewState(snap)
	if err != nil {
		return nil, err
	}
	c := &countingState{State: st}
	p.states = append(p.states, c)
	return c, nil
}

// TestCLWKeepsItsOwnWinningMove syncs a fresh CLW once with its own
// candidate as the winner and once with another worker's move. Keeping
// its own move must call ApplySwap zero times; a foreign winner costs
// the undo plus the apply. Either way the CLW ends on the permutation
// of a TSW copy that applied the winner.
func TestCLWKeepsItsOwnWinningMove(t *testing.T) {
	prob := &countingProblem{qapTestProblem: qapTestProblem{ins: qap.Random(16, 3)}}
	cfg := DefaultConfig()
	cfg.Trials, cfg.Depth = 4, 8
	cfg.Seed = 1
	st0, err := prob.Initial(1)
	if err != nil {
		t.Fatal(err)
	}
	initPerm := st0.Snapshot()
	foreign := tabu.CompoundMove{Swaps: []tabu.Swap{{A: 0, B: 1}, {A: 2, B: 3}}}

	for _, tc := range []struct {
		name string
		own  bool
	}{{"own", true}, {"foreign", false}} {
		t.Run(tc.name, func(t *testing.T) {
			var cand, chosen tabu.CompoundMove
			var calls int
			var clwPerm []int32
			root := func(env pvm.Env) {
				id := env.Spawn("clw0", 1, func(e pvm.Env) { clwRun(e, prob, cfg) })
				env.Send(id, TagInit, initMsg{Perm: initPerm, RangeLo: 0, RangeHi: prob.Size()})
				env.Send(id, TagSearch, nil)
				cand = env.Recv(TagCandidate).Data.(candMsg).Move
				clw := prob.states[len(prob.states)-1]
				before := clw.applies
				chosen = foreign
				if tc.own {
					chosen = cand
				}
				env.Send(id, TagSync, syncMsg{Chosen: chosen})
				// The CLW handles its messages in order, so once it has
				// answered the stop the sync is complete.
				env.Send(id, TagStop, nil)
				env.Recv(TagStats)
				calls = clw.applies - before
				clwPerm = clw.Snapshot()
			}
			if _, err := pvm.RunVirtual(pvm.Options{Seed: 1, Cluster: cluster.Homogeneous(2, 1)}, root); err != nil {
				t.Fatal(err)
			}
			if cand.Empty() || cand.SameSwaps(&foreign) {
				t.Fatalf("candidate %v cannot tell the two cases apart", cand.Swaps)
			}
			want := 0
			if !tc.own {
				want = len(cand.Swaps) + len(foreign.Swaps)
			}
			if calls != want {
				t.Errorf("sync called ApplySwap %d times, want %d", calls, want)
			}
			tsw, err := prob.qapTestProblem.NewState(initPerm)
			if err != nil {
				t.Fatal(err)
			}
			chosen.Apply(tsw)
			if !slices.Equal(clwPerm, tsw.Snapshot()) {
				t.Errorf("CLW permutation %v, TSW's %v", clwPerm, tsw.Snapshot())
			}
		})
	}
}
