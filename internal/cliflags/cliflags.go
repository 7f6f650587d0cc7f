// Package cliflags centralizes the flag declarations shared by the
// command-line tools (vpack, vpbench, vpdump, vpackd): the structured
// logging pair (-log, -q), the static verifier and translation-validation
// gates (-verify, -equiv) and the artifact store (-store). Each tool
// registers the shared groups into its own FlagSet so names, defaults and
// semantics stay identical across the toolbox. The drift tracker sizing
// (-driftwindow, -driftring) is not shared: vpackd alone registers it,
// and clients read the daemon's sizing from GET /v1/drift/{program}.
package cliflags

import (
	"flag"

	"repro/internal/telemetry"
)

// Log carries the logging pair: -log selects the structured mode, -q
// forces it off (each tool phrases its own -q usage line, since what -q
// silences differs per tool).
type Log struct {
	mode  string
	quiet bool
}

// LogFlags registers -log and -q on fs.
func LogFlags(fs *flag.FlagSet, quietUsage string) *Log {
	l := &Log{}
	fs.BoolVar(&l.quiet, "q", false, quietUsage)
	fs.StringVar(&l.mode, "log", "text", "structured log mode: "+telemetry.LogModes)
	return l
}

// Mode returns the effective log mode: "off" when -q was given,
// otherwise the -log value.
func (l *Log) Mode() string {
	if l.quiet {
		return "off"
	}
	return l.mode
}

// Quiet reports whether -q was given.
func (l *Log) Quiet() bool { return l.quiet }

// VerifyFlag registers -verify on fs.
func VerifyFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("verify", false, "run the static verifier after every pipeline stage (exit 3 on violation)")
}

// EquivFlag registers -equiv on fs: the translation-validation gate.
// Tools that accept it prove every optimized package observationally
// equivalent to its region code and refuse to proceed on refutation
// (exit 4, with a structured counterexample on stderr).
func EquivFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("equiv", false, "prove every optimized package equivalent to its region code (exit 4 on refutation)")
}

// StoreFlag registers -store on fs. Every tool parses it identically:
// an empty value (the default) keeps today's in-memory-only behavior;
// a directory enables the persistent artifact store there. Open the
// returned path with cas.Open (cliflags deliberately does not import
// internal/cas; lowering the flag to a live store is the tool's call).
func StoreFlag(fs *flag.FlagSet) *string {
	return fs.String("store", "", "persistent artifact store `directory` (empty: in-memory only)")
}
