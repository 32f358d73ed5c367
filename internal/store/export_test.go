package store

// FailSyncs makes every later sync of s's log fail with err, for the
// tests of this directory that drive a server over s.
func FailSyncs(s *Store, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wal = &faultyWAL{walFile: s.wal, syncErr: err}
}
