package equiv

import "repro/internal/prog"

// Func returns the live package function a snapshot was captured from.
func (s *Snapshot) Func() *prog.Func { return s.fn }

// Cut reports whether b is a cut point of the proof: an entry or a join.
func (s *Snapshot) Cut(b *prog.Block) bool { return s.cuts[b] }

// LiveIn returns the reference's live-in registers at b.
func (s *Snapshot) LiveIn(b *prog.Block) prog.RegSet { return s.liveIn[b] }

// Differential runs the bounded differential executor on snap: trials
// concrete initial states (the first six structured, the rest
// pseudo-random) from every entry, the reference snapshot against the
// live function. It returns the first divergence as an *Error, or nil.
func Differential(snap *Snapshot, trials int) error {
	if ce := snap.fuzz(trials); ce != nil {
		return &Error{Package: snap.name, Counterexamples: []Counterexample{*ce}}
	}
	return nil
}
