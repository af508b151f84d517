package nas

// ReplayBuilder returns the Builder Replay runs Run with, so external
// tests can observe a replay kernel's machine.
func (s *Stream) ReplayBuilder() Builder { return s.build }
