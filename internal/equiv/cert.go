package equiv

import (
	"errors"
	"fmt"
	"strings"
)

// ErrNotEquivalent is the sentinel every refutation matches. core
// re-exports it as core.ErrNotEquivalent; match with errors.Is — the
// concrete error is always an *Error carrying the counterexamples.
var ErrNotEquivalent = errors.New("translation validation failed: optimized package is not equivalent to its region code")

// Certificate summarizes one package's translation-validation outcome.
// It is attached to opt.PassRecord and serialized into PackageSet
// artifacts, so a served package set carries its own proof metadata.
type Certificate struct {
	// Package is the package function's name; Phase the detected phase it
	// specializes.
	Package string `json:"package"`
	Phase   int    `json:"phase"`
	// Entries counts the proof's entry points: launch targets, linked-exit
	// targets and address-taken blocks, each proved under an arbitrary
	// machine state.
	Entries int `json:"entries"`
	// Cuts counts the join blocks (blocks with two or more predecessors
	// inside the package) that a proved path reached and that were
	// proved as segment starts, each under an arbitrary machine state.
	Cuts int `json:"cuts,omitempty"`
	// PathsProved counts paths, each from a segment start to the next cut
	// points, whose observable effects were proved term-equal.
	// PathsFuzzed is always 0: proofs no longer fall back to differential
	// execution. It stays for the benchmark's records and retires with
	// them.
	PathsProved int `json:"paths_proved"`
	PathsFuzzed int `json:"paths_fuzzed,omitempty"`
	// Terms is the size of the proof's interned term DAG; MaxPathBlocks
	// the longest path explored, in blocks.
	Terms         int `json:"terms"`
	MaxPathBlocks int `json:"max_path_blocks,omitempty"`
	// Equivalent reports the verdict. False means a counterexample was
	// found; the Prove error carries it.
	Equivalent bool `json:"equivalent"`
}

// Verdict renders a one-line human-readable summary.
func (c *Certificate) Verdict() string {
	state := "EQUIVALENT"
	if !c.Equivalent {
		state = "NOT EQUIVALENT"
	}
	return fmt.Sprintf("%s phase=%d %s: %d entries, %d cuts, %d paths proved, %d terms",
		c.Package, c.Phase, state, c.Entries, c.Cuts, c.PathsProved, c.Terms)
}

// Counterexample is one structured refutation: the path along which the
// two versions diverge and what diverged there.
type Counterexample struct {
	// Package and Entry locate the proof (Entry is the failing segment's
	// start: an entry or a join block); Path lists the optimized
	// version's blocks from there with the branch decision taken at each
	// ("b12+" taken, "b12-" fallthrough, "b7" unconditional).
	Package string   `json:"package"`
	Entry   string   `json:"entry"`
	Path    []string `json:"path,omitempty"`
	// Kind classifies the divergence: "reg" (live-out register term),
	// "mem" (memory effect chain), "exit-target", "loop-point" (the
	// versions reach different cut points; cuts are the entries and the
	// join blocks, loop headers among them), "callee", "return-address",
	// "jump-target", "event-shape" (one version performs more observable
	// events than the other, or the optimized version cycles without
	// passing a cut point), "unresolved-branch" (the reference takes a
	// branch the optimized version never decided — a dropped or retargeted
	// branch), "budget" (the proof needs more than Config.MaxPaths paths
	// and is refused), or "fuzz" (a divergence found by the differential
	// executor, which only the tests run as a concrete oracle).
	Kind string `json:"kind"`
	// Reg names the diverging register for Kind "reg".
	Reg string `json:"reg,omitempty"`
	// RefTerm and OptTerm render the diverging terms (or event shapes)
	// for the reference and optimized versions.
	RefTerm string `json:"ref,omitempty"`
	OptTerm string `json:"opt,omitempty"`
	// Witness, when non-empty, is a concrete entry state (register
	// assignments) satisfying the path constraints under which the two
	// terms evaluate differently in the term model.
	Witness string `json:"witness,omitempty"`
	// Detail is a free-form human-readable explanation.
	Detail string `json:"detail,omitempty"`

	// refT and optT hold the diverging term nodes for witness search; they
	// are proof-internal and never serialized.
	refT, optT *Term
}

func (ce *Counterexample) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s divergence", ce.Package, ce.Kind)
	if ce.Entry != "" {
		fmt.Fprintf(&sb, " from entry %s", ce.Entry)
	}
	if len(ce.Path) > 0 {
		fmt.Fprintf(&sb, " along %s", strings.Join(ce.Path, " "))
	}
	if ce.Reg != "" {
		fmt.Fprintf(&sb, ": %s", ce.Reg)
	}
	if ce.RefTerm != "" || ce.OptTerm != "" {
		fmt.Fprintf(&sb, ": ref %s vs opt %s", ce.RefTerm, ce.OptTerm)
	}
	if ce.Detail != "" {
		fmt.Fprintf(&sb, " (%s)", ce.Detail)
	}
	if ce.Witness != "" {
		fmt.Fprintf(&sb, " [witness: %s]", ce.Witness)
	}
	return sb.String()
}

// Error is a refutation: the package is not observationally equivalent to
// its region code. It matches ErrNotEquivalent under errors.Is.
type Error struct {
	Package         string
	Cert            *Certificate
	Counterexamples []Counterexample
}

func (e *Error) Error() string {
	if len(e.Counterexamples) == 0 {
		return fmt.Sprintf("equiv: package %s is not equivalent", e.Package)
	}
	return fmt.Sprintf("equiv: package %s is not equivalent: %s", e.Package, e.Counterexamples[0].String())
}

// Is makes errors.Is(err, ErrNotEquivalent) — and through the core
// re-export, errors.Is(err, core.ErrNotEquivalent) — match any
// refutation.
func (e *Error) Is(target error) bool { return target == ErrNotEquivalent }

// Counterexamples extracts the structured counterexamples from any error
// in err's chain, or nil.
func Counterexamples(err error) []Counterexample {
	var e *Error
	if errors.As(err, &e) {
		return e.Counterexamples
	}
	return nil
}
