package drift

// FreshScore scores the tracker's current ring against its current
// baseline from scratch, with Score's peak update, so tests can check the
// measurement Score serves against a recomputation.
func (t *Tracker) FreshScore() Score {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.computeScoreLocked()
	s.Peak = max(t.peak, s.Composite)
	return s
}
