package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"upmgo"
)

// jobEvent is one line of a job's NDJSON lifecycle stream. Seq numbers
// are per-job, dense from 1, so a client that reconnects can detect
// gaps (there are none — the stream always replays from the start).
type jobEvent struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // job_queued, job_started, cell_started, cell_done, job_done, job_failed
	Job  string `json:"job"`

	// Cell events: which cell, and where its record will land.
	Bench   string `json:"bench,omitempty"`
	Label   string `json:"label,omitempty"`
	Address string `json:"address,omitempty"`
	Index   int    `json:"index,omitempty"` // 1-based presentation position
	Total   int    `json:"total,omitempty"`

	// cell_done only: outcome and host cost.
	Kind           string  `json:"kind,omitempty"` // exp.FastPathKind
	WhyNot         string  `json:"why_not,omitempty"`
	ReplayDeclined string  `json:"replay_declined,omitempty"`
	HostSeconds    float64 `json:"host_seconds,omitempty"`
	VirtualSeconds float64 `json:"virtual_seconds,omitempty"`

	// job_done / job_failed only.
	CellsDone int    `json:"cells_done,omitempty"`
	Error     string `json:"error,omitempty"`
}

// appendEvent records one event on j's log and wakes every stream
// waiting on it. Caller holds s.mu.
func (s *server) appendEvent(j *job, ev jobEvent) {
	ev.Seq = len(j.events) + 1
	ev.Job = j.ID
	j.events = append(j.events, ev)
	s.cond.Broadcast()
}

// cellEvent translates one runner progress event into the job's stream
// form, joining it with the submission-time cell list for the address.
func cellEvent(j *job, ev upmgo.SweepEvent) jobEvent {
	je := jobEvent{
		Type:  "cell_started",
		Index: ev.Index + 1,
		Total: ev.Total,
	}
	if ev.Index >= 0 && ev.Index < len(j.Cells) {
		ref := j.Cells[ev.Index]
		je.Bench, je.Label, je.Address = ref.Bench, ref.Label, ref.Address
	}
	if !ev.Done {
		return je
	}
	je.Type = "cell_done"
	rep := ev.Report
	if rep.Address != "" {
		// The runner's own record of the cell's identity.
		je.Address = rep.Address
	}
	je.HostSeconds = rep.HostSeconds
	je.VirtualSeconds = rep.VirtualSeconds
	je.Kind = string(rep.Kind)
	je.ReplayDeclined = rep.ReplayDeclined
	if w := rep.FastPath.WhyNot; w != nil {
		je.WhyNot = string(w.Reason)
	}
	if ev.Err != nil {
		je.Error = ev.Err.Error()
	}
	return je
}

// terminal reports whether a job state can no longer change (and its
// event log is therefore complete).
func (st jobState) terminal() bool { return st == jobDone || st == jobFailed }

// handleEvents streams one job's lifecycle as NDJSON: the full history
// first (a finished job replays and closes immediately), then live
// events as they happen, ending when the job reaches a terminal state
// or the client disconnects. `curl -N .../v1/jobs/job-1/events` tails a
// running sweep.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("%w: %q", ErrJobNotFound, id))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// cond.Wait cannot watch the client's context, so a sentinel
	// goroutine turns disconnection into a broadcast; every stream
	// rechecks its own context after each wakeup.
	done := r.Context().Done()
	go func() {
		<-done
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}()

	next := 0
	for {
		s.mu.Lock()
		for next >= len(j.events) && !j.State.terminal() && r.Context().Err() == nil {
			s.cond.Wait()
		}
		batch := j.events[next:]
		next = len(j.events)
		finished := j.State.terminal()
		s.mu.Unlock()

		for _, ev := range batch {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		if len(batch) > 0 && fl != nil {
			fl.Flush()
		}
		if r.Context().Err() != nil {
			return
		}
		if finished && next == eventCount(s, j) {
			return
		}
	}
}

// eventCount reads the job's current event count under the lock.
func eventCount(s *server, j *job) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(j.events)
}
