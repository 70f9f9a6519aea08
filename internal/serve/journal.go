package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"pts/internal/core"
)

// Job journaling: with Config.Store set, the scheduler records every
// job's spec and lifecycle state as JSON under "jobs/<id>", updated at
// each transition (queued, running, terminal). A restarted daemon
// replays the journal (recover): terminal jobs come back with their
// final result still served by GET /v1/jobs/{id}, and queued or
// running jobs re-enter the queue in their original submission order —
// a job that was mid-run resumes from the master snapshot its run
// persisted under "runs/<id>" in the same store, so the work done
// before the crash is not repeated.
//
// A job's event log is journaled with its terminal record: once that
// write succeeds the scheduler drops the job from memory, keeping only
// its View summary, and Get rebuilds the full job — result and event
// log — from the record, exactly as recovery does. A live job's log is
// in memory only; a job re-admitted after a restart starts a fresh
// one. Writes are best-effort — a failing store degrades durability,
// never the job in flight, and a job whose terminal write failed stays
// in memory — and the at-least-once discipline applies: a daemon
// killed between a run's completion and the journal write re-admits
// the job and re-runs it (finding no snapshot, from the start) rather
// than losing it.

// jobRecord is the journaled form of one job.
type jobRecord struct {
	ID       string           `json:"id"`
	Spec     core.ProblemSpec `json:"problem"`
	Workers  int              `json:"workers"`
	Cfg      core.Config      `json:"config"`
	Status   string           `json:"status"`
	Error    string           `json:"error,omitempty"`
	Created  time.Time        `json:"created"`
	Started  *time.Time       `json:"started,omitempty"`
	Finished *time.Time       `json:"finished,omitempty"`
	Result   *core.Result     `json:"result,omitempty"`
	// Events is the job's full event log, on terminal records only.
	Events []Event `json:"events,omitempty"`
}

// jobKey is the store key of a job's journal entry.
func jobKey(id string) string { return "jobs/" + id }

// runID is the store namespace a job's run snapshots under; the core
// layer prefixes it to "runs/<id>".
func runID(id string) string { return id }

// persistJob journals the job's current state, with its event log
// once it is terminal. Best-effort: failures are logged (and returned)
// and the job carries on in memory. The state is read and written under
// j.journalMu, so a slow write of an older state (Submit's queued
// record) can never land over a newer one (a concurrent Cancel's).
func (s *Scheduler) persistJob(j *Job) error {
	if s.cfg.Store == nil {
		return nil
	}
	j.journalMu.Lock()
	defer j.journalMu.Unlock()
	j.mu.Lock()
	rec := jobRecord{
		ID:      j.id,
		Spec:    j.req.Spec,
		Workers: j.req.Workers,
		Cfg:     j.req.Cfg,
		Status:  j.status.String(),
		Error:   j.errMsg,
		Created: j.created,
		Result:  j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		rec.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		rec.Finished = &t
	}
	if j.status.Terminal() {
		rec.Events = j.events // complete: a terminal log is never appended to
	}
	j.mu.Unlock()

	b, err := json.Marshal(rec)
	if err != nil {
		s.logf("serve: journal %s: marshal: %v", j.id, err)
		return err
	}
	if err := s.cfg.Store.Put(jobKey(j.id), b); err != nil {
		s.logf("serve: journal %s: %v", j.id, err)
		return err
	}
	return nil
}

// settle journals a job that just reached a terminal status and
// deletes its run snapshot. Once the journal holds the terminal record
// the job leaves memory, its View summary standing in for it.
func (s *Scheduler) settle(j *Job) {
	err := s.persistJob(j)
	s.cleanupRun(j)
	if s.cfg.Store == nil || err != nil {
		return
	}
	v := j.View(false)
	s.mu.Lock()
	if s.jobs[j.id] == j {
		delete(s.jobs, j.id)
		s.retired[j.id] = v
	}
	s.mu.Unlock()
}

// readRecord reads and decodes one journal record.
func (s *Scheduler) readRecord(key string) (jobRecord, error) {
	var rec jobRecord
	b, ok, err := s.cfg.Store.Get(key)
	if err == nil && !ok {
		err = fmt.Errorf("no record")
	}
	if err == nil {
		err = json.Unmarshal(b, &rec)
	}
	return rec, err
}

// jobFromRecord rebuilds a job from its journal record: identity,
// request and timestamps, and for a terminal status also the final
// state, result and event log. A terminal record without events (one
// written before event logs were journaled, or rebuilt from a summary)
// restarts the log at the terminal marker.
func jobFromRecord(rec jobRecord, status Status) *Job {
	j := &Job{
		id:      rec.ID,
		req:     Request{Spec: rec.Spec, Workers: rec.Workers, Cfg: rec.Cfg},
		created: rec.Created,
		changed: make(chan struct{}),
		done:    make(chan struct{}),
	}
	if rec.Started != nil {
		j.started = *rec.Started
	}
	if rec.Finished != nil {
		j.finished = *rec.Finished
	}
	if status.Terminal() {
		j.status = status
		j.errMsg = rec.Error
		j.result = rec.Result
		j.events = rec.Events
		if len(j.events) == 0 {
			j.append(status.String(), nil, rec.Error)
		}
		close(j.done)
	}
	return j
}

// loadJob rebuilds a finished job that left memory from its journal
// record. Should the record have become unreadable, the job is rebuilt
// from its summary v instead: status, error and timestamps, without
// the result or the progress events.
func (s *Scheduler) loadJob(v View) *Job {
	rec, err := s.readRecord(jobKey(v.ID))
	if st, ok := statusFromWire(rec.Status); err == nil && ok && st.Terminal() {
		return jobFromRecord(rec, st)
	}
	s.logf("serve: reload %s from the journal: %v (status %q); serving its summary", v.ID, err, rec.Status)
	st, _ := statusFromWire(v.Status)
	return jobFromRecord(jobRecord{
		ID: v.ID, Spec: v.Spec, Workers: v.Workers, Error: v.Error,
		Created: v.Created, Started: v.Started, Finished: v.Finished,
	}, st)
}

// cleanupRun deletes a terminal job's run snapshot: the core layer
// removes it after a clean completion, this covers the cancelled and
// failed endings (a terminal job is never resumed).
func (s *Scheduler) cleanupRun(j *Job) {
	if s.cfg.Store == nil {
		return
	}
	_ = s.cfg.Store.Delete("runs/" + runID(j.id))
}

// statusFromWire parses a journaled status name.
func statusFromWire(name string) (Status, bool) {
	for _, st := range []Status{Queued, Running, Done, Failed, Cancelled} {
		if st.String() == name {
			return st, true
		}
	}
	return 0, false
}

// jobSeq extracts the numeric part of a job id ("j12" -> 12) for
// recovery ordering; malformed ids sort first.
func jobSeq(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j"))
	if err != nil {
		return 0
	}
	return n
}

// recoverJobs replays the job journal into a freshly constructed
// scheduler. Terminal jobs are restored as served history; queued and
// running jobs re-enter the queue in submission order — admission
// checks are not re-applied, because these jobs were admitted by the
// previous daemon and the fleet they wait for re-registers
// asynchronously. Called from New, before any submission can race it.
func (s *Scheduler) recoverJobs() {
	keys, err := s.cfg.Store.List("jobs/")
	if err != nil {
		s.logf("serve: recover: list journal: %v", err)
		return
	}
	var recs []jobRecord
	for _, k := range keys {
		rec, err := s.readRecord(k)
		if err != nil {
			s.logf("serve: recover: read %s: %v", k, err)
			continue
		}
		if rec.ID == "" {
			continue
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return jobSeq(recs[i].ID) < jobSeq(recs[j].ID) })

	requeued, restored := 0, 0
	for _, rec := range recs {
		status, ok := statusFromWire(rec.Status)
		if !ok {
			s.logf("serve: recover: %s has unknown status %q", rec.ID, rec.Status)
			continue
		}
		if n := jobSeq(rec.ID); n > s.seq {
			s.seq = n
		}
		s.order = append(s.order, rec.ID)
		j := jobFromRecord(rec, status)
		if status.Terminal() {
			// History: the summary stays listed, and Get rebuilds the
			// final state, result and event log from the record.
			s.retired[j.id] = j.View(false)
			restored++
			continue
		}
		s.jobs[j.id] = j
		// Queued and running jobs alike re-enter the queue: the old
		// daemon's leases died with it, and a re-admitted run resumes
		// from its master snapshot when one was persisted.
		prob, err := s.cfg.Resolve(rec.Spec)
		if err != nil {
			j.finish(Failed, nil, "recover: resolve problem: "+err.Error())
			s.settle(j)
			continue
		}
		j.prob = prob
		j.ctx, j.cancel = context.WithCancel(context.Background())
		j.status = Queued
		j.append("queued", nil, "")
		s.queue = append(s.queue, j)
		requeued++
		if status == Running {
			s.persistJob(j) // journal the running->queued demotion
		}
	}
	if requeued > 0 || restored > 0 {
		s.logf("serve: recovered %d terminal job(s), re-admitted %d", restored, requeued)
	}
}
