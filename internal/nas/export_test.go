package nas

import "upmgo/internal/machine"

// ReplayBuilder returns the Builder Replay runs Run with, so external
// tests can observe a replay kernel's machine.
func (s *Stream) ReplayBuilder() Builder { return s.build }

// RecordStreamFull records cfg's stream simulating every step's caches:
// the uncompressed reference a compressed recording must equal.
func RecordStreamFull(build Builder, cfg Config) (*Stream, error) {
	return recordStream(build, cfg, false)
}

// Log returns the stream's per-CPU logs and Ops.
func (s *Stream) Log() *machine.Stream { return s.log }

// VerdictMachine returns the machine of a recording whose
// verdict task is still pending, or nil.
func (s *Stream) VerdictMachine() *machine.Machine {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.task == nil {
		return nil
	}
	return s.task.m
}
