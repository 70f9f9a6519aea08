package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pts"
	"pts/internal/tabu"
)

// Tracing from outside the program: spans around calls into each layer,
// recorded by decorators on the public Problem/State and Store
// boundaries and by the benchmark's own clients. Spans stay in memory
// and are written when the run ends. Hot calls (DeltaSwapBatch,
// ApplySwap) are too frequent for spans; each decorated state counts
// them in its own fields and the counts are folded into the tracer once
// the solve that owned the state has returned.

// span is one timed interval. Times are nanoseconds since the tracer's
// epoch; Parent is assigned when the spans are written.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	// Job is the serving-mode job id a store write belongs to; the op
	// is resolved from it at the end of the run.
	Job string `json:"job,omitempty"`
	// Bytes is the size of a store write.
	Bytes int `json:"bytes,omitempty"`
}

// hotCounts aggregates one state module's hot-call counters.
type hotCounts struct {
	ops                    int64 // traced solves whose states were folded in
	cpuNs                  int64 // process CPU during those solves
	deltaCalls, batchCands int64 // batch calls and the candidates they carried
	cands, deltaNs         int64 // all evaluated candidates (batch and scalar)
	applyCalls, applyNs    int64
}

func (h *hotCounts) add(o hotCounts) {
	h.ops += o.ops
	h.cpuNs += o.cpuNs
	h.deltaCalls += o.deltaCalls
	h.batchCands += o.batchCands
	h.cands += o.cands
	h.deltaNs += o.deltaNs
	h.applyCalls += o.applyCalls
	h.applyNs += o.applyNs
}

// tracer collects one traced run's spans and hot-call counts.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
	hot   map[string]*hotCounts
	jobOp map[string]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), hot: map[string]*hotCounts{}, jobOp: map[string]int64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

// add records a finished span, giving it an id if it has none.
func (t *tracer) add(s span) {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops everything recorded so far (the warm-up's spans).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.hot, t.jobOp = nil, map[string]*hotCounts{}, map[string]int64{}
	t.mu.Unlock()
}

// bindJob ties a serving-mode job id to the op that submitted it.
func (t *tracer) bindJob(job string, op int64) {
	t.mu.Lock()
	t.jobOp[job] = op
	t.mu.Unlock()
}

func (t *tracer) foldHot(mod string, h hotCounts) {
	t.mu.Lock()
	defer t.mu.Unlock()
	agg := t.hot[mod]
	if agg == nil {
		agg = &hotCounts{}
		t.hot[mod] = agg
	}
	agg.add(h)
}

// containers are the spans that call into other layers: an op (or a
// reference solve), a round, and the HTTP calls the daemon's work runs
// under. Every other span is a leaf.
var containers = map[string]bool{
	"op": true, "reference": true, "core.round": true,
	"http.POST /v1/jobs": true, "http.GET /v1/jobs/{id}/events": true,
}

// finish resolves store spans to their ops, assigns every span the
// innermost container span of the same op that contains it as its
// parent, and computes self times: a span's duration minus the part of
// it its children cover. It returns the spans sorted by start.
func (t *tracer) finish() []span {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	for i := range spans {
		if spans[i].Job != "" {
			spans[i].Op = t.jobOp[spans[i].Job]
		}
	}
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End-spans[i].Start > spans[j].End-spans[j].Start
	})
	byOp := map[int64][]int{}
	for i := range spans {
		byOp[spans[i].Op] = append(byOp[spans[i].Op], i)
	}
	children := map[int][]int{}
	for _, idx := range byOp {
		for _, i := range idx {
			s := &spans[i]
			best := -1
			for _, j := range idx {
				c := &spans[j]
				if j == i || !containers[c.Name] || c.Start > s.Start || c.End < s.End || (c.End-c.Start == s.End-s.Start && j > i) {
					continue
				}
				if best < 0 || c.End-c.Start < spans[best].End-spans[best].Start {
					best = j
				}
			}
			if best >= 0 {
				s.Parent = spans[best].ID
				children[best] = append(children[best], i)
			}
		}
	}
	for i := range spans {
		s := &spans[i]
		covered, reach := int64(0), s.Start
		for _, c := range children[i] { // already ordered by start
			lo, hi := max(spans[c].Start, reach), min(spans[c].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
	return spans
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats returns the count and mean duration in ns of the spans
// whose name is name.
func spanStats(spans []span, name string) (n int, meanNs float64) {
	var total int64
	for _, s := range spans {
		if s.Name == name {
			n++
			total += s.End - s.Start
		}
	}
	if n > 0 {
		meanNs = float64(total) / float64(n)
	}
	return n, meanNs
}

// spanDurations returns the durations in ns of the spans named name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// tracedProblem decorates a workload Problem for one traced solve: it
// times NewState, wraps every state it hands out, and forwards Details
// so Solve still fills Result.Details.
type tracedProblem struct {
	pts.Problem
	mod string // state module name used for span and metric names
	op  int64
	tr  *tracer

	mu     sync.Mutex
	states []*tracedState
}

func (p *tracedProblem) Initial(seed uint64) (pts.State, error) {
	st, err := p.Problem.Initial(seed)
	if err != nil {
		return nil, err
	}
	return p.wrap(st), nil
}

func (p *tracedProblem) NewState(snap []int32) (pts.State, error) {
	start := p.tr.now()
	st, err := p.Problem.NewState(snap)
	p.tr.add(span{Op: p.op, Name: p.mod + ".NewState", Start: start, End: p.tr.now()})
	if err != nil {
		return nil, err
	}
	return p.wrap(st), nil
}

func (p *tracedProblem) Details(best []int32) (any, error) {
	if d, ok := p.Problem.(pts.Detailer); ok {
		return d.Details(best)
	}
	return nil, nil
}

func (p *tracedProblem) wrap(st pts.State) *tracedState {
	ts := &tracedState{State: st, p: p}
	ts.batch, _ = st.(tabu.BatchEvaluator)
	ts.into, _ = st.(interface{ SnapshotInto([]int32) []int32 })
	ts.refresh, _ = st.(interface{ Refresh() })
	p.mu.Lock()
	p.states = append(p.states, ts)
	p.mu.Unlock()
	return ts
}

// fold adds the counts of every state this problem handed out to the
// tracer, crediting the solve's CPU time. Call it after Solve returned:
// the run has then joined every worker that touched the states.
func (p *tracedProblem) fold(cpu time.Duration) {
	h := hotCounts{ops: 1, cpuNs: int64(cpu)}
	p.mu.Lock()
	for _, s := range p.states {
		h.add(s.counts)
	}
	p.mu.Unlock()
	p.tr.foldHot(p.mod, h)
}

// tracedState decorates one worker state. It forwards every capability
// the engine probes for (DeltaSwapBatch with the scalar fallback,
// SnapshotInto, Refresh), so a traced solve follows the untraced
// trajectory exactly. The counters are plain fields: a state is only
// ever used by the one worker that owns it.
type tracedState struct {
	pts.State
	p       *tracedProblem
	batch   tabu.BatchEvaluator
	into    interface{ SnapshotInto([]int32) []int32 }
	refresh interface{ Refresh() }
	counts  hotCounts
}

func (s *tracedState) DeltaSwap(a, b int32) float64 {
	t0 := time.Now()
	d := s.State.DeltaSwap(a, b)
	s.counts.deltaNs += int64(time.Since(t0))
	s.counts.cands++
	return d
}

func (s *tracedState) DeltaSwapBatch(cands []tabu.SwapCand, out []float64) {
	t0 := time.Now()
	if s.batch != nil {
		s.batch.DeltaSwapBatch(cands, out)
	} else {
		for i, c := range cands {
			out[i] = s.State.DeltaSwap(c.A, c.B)
		}
	}
	s.counts.deltaNs += int64(time.Since(t0))
	s.counts.deltaCalls++
	s.counts.batchCands += int64(len(cands))
	s.counts.cands += int64(len(cands))
}

func (s *tracedState) ApplySwap(a, b int32) {
	t0 := time.Now()
	s.State.ApplySwap(a, b)
	s.counts.applyNs += int64(time.Since(t0))
	s.counts.applyCalls++
}

func (s *tracedState) Restore(snap []int32) error {
	start := s.p.tr.now()
	err := s.State.Restore(snap)
	s.p.tr.add(span{Op: s.p.op, Name: s.p.mod + ".Restore", Start: start, End: s.p.tr.now()})
	return err
}

func (s *tracedState) SnapshotInto(dst []int32) []int32 {
	if s.into != nil {
		return s.into.SnapshotInto(dst)
	}
	return s.State.Snapshot()
}

func (s *tracedState) Refresh() {
	if s.refresh == nil {
		return
	}
	start := s.p.tr.now()
	s.refresh.Refresh()
	s.p.tr.add(span{Op: s.p.op, Name: "timing.Refresh", Start: start, End: s.p.tr.now()})
}

// tracedStore decorates the serving daemon's Store, recording every Put
// as a span tied to the job its key names.
type tracedStore struct {
	pts.Store
	tr *tracer
}

func (s *tracedStore) Put(key string, value []byte) error {
	start := s.tr.now()
	err := s.Store.Put(key, value)
	job := key
	if i := strings.LastIndexByte(key, '/'); i >= 0 {
		job = key[i+1:]
	}
	s.tr.add(span{Name: "store.Put", Start: start, End: s.tr.now(), Job: job, Bytes: len(value)})
	return err
}
