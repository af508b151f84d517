package nas

import (
	"context"

	"upmgo/internal/machine"
)

// ReplayBuilder returns the Builder of a replay of a recorded stream, so
// external tests can observe a replay kernel's machine.
func (s *Stream) ReplayBuilder() Builder {
	return func(m *machine.Machine, _ Class, _ int, _ uint64) Kernel { return s.replayKernel(m, nil) }
}

// RecordStreamFull records cfg's stream simulating every step's caches:
// the uncompressed reference a compressed recording must equal.
func RecordStreamFull(build Builder, cfg Config) (*Stream, error) {
	s, err := newStream(build, cfg, false)
	if err != nil {
		return nil, err
	}
	if err := s.Record(context.Background(), nil); err != nil {
		return nil, err
	}
	return s, nil
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

// Judged returns a channel that is closed once the stream's verdict is
// known.
func (s *Stream) Judged() <-chan struct{} { return s.judged }
