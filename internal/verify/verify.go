// Package verify is the pipeline's static-analysis gate: a rule catalog
// over the prog IR that checks CFG well-formedness, dataflow soundness,
// package invariants and schedule legality after every transformation
// stage. The five structural CFG rules (cfg/main … cfg/arc) live in
// internal/prog, whose Verify every stage already runs and stops at the
// first violation; this package reports every violation of them as
// structured diagnostics (stage, rule ID, function, block), adds
// cfg/callret, and validates the *soundness* of transformations, not just
// the shape of their output:
// exit-block dummy consumers against recomputed liveness, sink/merge
// certificates against the rewritten CFG, and recorded issue cycles
// against functional-unit limits and operand latencies.
//
// The rule catalog (DESIGN.md §11 documents each in detail):
//
//	cfg/main    cfg/dup    cfg/term    cfg/inst   cfg/arc
//	cfg/callret cfg/reach
//	df/exit-live  df/sink  df/merge
//	pkg/origin  pkg/copy   pkg/launch  pkg/link   pkg/growth
//	sched/record  sched/width  sched/dep
//	region/profiled-hot  region/profiled-arc  region/no-cold
//
// Everything here is read-only over its inputs and independent of the
// code under test: certificates recorded by opt passes are re-checked
// against freshly computed liveness and dependence information.
package verify

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/prog"
)

// ErrFailed is the sentinel all verifier failures match. core re-exports
// it as core.ErrVerifyFailed; match with errors.Is, never equality — the
// concrete error is always an *Error carrying the diagnostics.
var ErrFailed = errors.New("static verification failed")

// Diagnostic is one rule violation.
type Diagnostic struct {
	// Stage names the pipeline stage the check ran after ("link",
	// "optimize", "region", ...).
	Stage string
	// Rule is the catalog ID, e.g. "df/exit-live".
	Rule string
	// Func and Block locate the violation; either may be empty when the
	// rule is program- or result-scoped (e.g. pkg/growth).
	Func  string
	Block string
	// Msg is the human-readable explanation.
	Msg string
}

func (d Diagnostic) String() string {
	loc := d.Func
	if d.Block != "" {
		loc = d.Block
	}
	if loc != "" {
		return fmt.Sprintf("[%s] %s: %s: %s", d.Rule, d.Stage, loc, d.Msg)
	}
	return fmt.Sprintf("[%s] %s: %s", d.Rule, d.Stage, d.Msg)
}

// Error aggregates every diagnostic one verification pass produced. It
// matches ErrFailed under errors.Is.
type Error struct {
	Stage string
	Diags []Diagnostic
}

func (e *Error) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "verify: %d violation(s) at stage %q", len(e.Diags), e.Stage)
	for i, d := range e.Diags {
		if i == 8 {
			fmt.Fprintf(&sb, "; ... %d more", len(e.Diags)-i)
			break
		}
		sb.WriteString("; ")
		sb.WriteString(d.String())
	}
	return sb.String()
}

// Is makes errors.Is(err, ErrFailed) — and through the core re-export,
// errors.Is(err, core.ErrVerifyFailed) — match any verifier Error.
func (e *Error) Is(target error) bool { return target == ErrFailed }

// checker accumulates diagnostics for one pass.
type checker struct {
	stage string
	diags []Diagnostic
}

func (c *checker) add(rule string, fn *prog.Func, b *prog.Block, format string, args ...any) {
	d := Diagnostic{Stage: c.stage, Rule: rule, Msg: fmt.Sprintf(format, args...)}
	if fn != nil {
		d.Func = fn.Name
	}
	if b != nil {
		d.Block = b.String()
		if d.Func == "" && b.Fn != nil {
			d.Func = b.Fn.Name
		}
	}
	c.diags = append(c.diags, d)
}

// err returns nil when no rule fired, or an *Error with every diagnostic.
func (c *checker) err() error {
	if len(c.diags) == 0 {
		return nil
	}
	return &Error{Stage: c.stage, Diags: c.diags}
}

// Rules lists the complete rule catalog. The mutation tests cross-check
// coverage against it: adding a rule to a checker without adding it here
// (and a corruption case firing it) fails the harness.
func Rules() []string {
	return []string{
		"cfg/main", "cfg/dup", "cfg/term", "cfg/inst", "cfg/arc",
		"cfg/callret", "cfg/reach",
		"df/exit-live", "df/sink", "df/merge",
		"pkg/origin", "pkg/copy", "pkg/launch", "pkg/link", "pkg/growth",
		"sched/record", "sched/width", "sched/dep",
		"region/profiled-hot", "region/profiled-arc", "region/no-cold",
	}
}

// Diagnostics extracts the structured diagnostics from any error chain
// produced by this package (through arbitrary %w wrapping), or nil.
func Diagnostics(err error) []Diagnostic {
	var ve *Error
	if errors.As(err, &ve) {
		return ve.Diags
	}
	return nil
}
