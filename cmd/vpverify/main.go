// Command vpverify runs the Vacuum Packing pipeline with the static
// verifier gating every stage and reports the verdict: every rule
// violation is printed with its rule ID, stage and location. It is the
// standalone front-end to internal/verify (the same checks vpack/vpbench
// enable with -verify), intended for CI gates and for debugging pipeline
// changes.
//
// Usage:
//
//	vpverify -bench perl -input A          # all four paper variants
//	vpverify -bench gzip -variant 3        # one variant (0-3, paper order)
//	vpverify -asm program.vpasm            # hand-written VPIR assembly
//	vpverify -all                          # every benchmark input
//	vpverify -all -equiv                   # + symbolic equivalence proofs
//
// With -equiv, translation validation proves every optimized package
// observationally equivalent to its region code and prints one verdict
// line per package; a refuted proof prints its structured
// counterexamples.
//
// Exit status: 0 all checks passed, 3 at least one rule fired, otherwise
// 4 at least one proof was refuted, otherwise 1 the pipeline failed
// before verification could complete.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/asm"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/equiv"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/verify"
	"repro/internal/workload"
)

func main() {
	var (
		asmPath = flag.String("asm", "", "verify a hand-written VPIR assembly file instead of a benchmark")
		bench   = flag.String("bench", "perl", "benchmark name")
		input   = flag.String("input", "A", "input name: A, B or C")
		scale   = flag.Int64("scale", 0, "override the input's iteration scale")
		variant = flag.Int("variant", -1, "verify only paper variant N (0-3); default all four")
		all     = flag.Bool("all", false, "verify every benchmark input (ignores -bench/-input)")
		sink    = flag.Bool("sink", false, "also enable the cold-code sinking pass")
		dynL    = flag.Bool("dynlaunch", false, "use dynamic launch-point selection instead of static links")
		equivOn = cliflags.EquivFlag(flag.CommandLine)
		quiet   = flag.Bool("q", false, "print only failures and the final verdict")
	)
	flag.Parse()

	type target struct {
		name  string
		build func() (*prog.Program, error)
	}
	var targets []target
	switch {
	case *asmPath != "":
		src, err := os.ReadFile(*asmPath)
		if err != nil {
			fatal(err)
		}
		targets = append(targets, target{*asmPath, func() (*prog.Program, error) {
			return asm.Assemble(string(src))
		}})
	case *all:
		for _, b := range workload.Ordered() {
			for _, in := range b.Inputs {
				b, in := b, in
				if *scale > 0 {
					in.Scale = *scale
				}
				targets = append(targets, target{
					fmt.Sprintf("%s/%s", b.Name, in.Name),
					func() (*prog.Program, error) { return b.Build(in), nil },
				})
			}
		}
	default:
		b, err := workload.ByName(*bench)
		if err != nil {
			fatal(err)
		}
		in, err := b.InputByName(*input)
		if err != nil {
			fatal(err)
		}
		if *scale > 0 {
			in.Scale = *scale
		}
		targets = append(targets, target{
			fmt.Sprintf("%s/%s", b.Name, in.Name),
			func() (*prog.Program, error) { return b.Build(in), nil },
		})
	}

	variants := core.Variants()
	if *variant >= 0 {
		if *variant >= len(variants) {
			fmt.Fprintf(os.Stderr, "vpverify: -variant must be 0-%d\n", len(variants)-1)
			os.Exit(2)
		}
		variants = variants[*variant : *variant+1]
	}

	violations, refuted, failures := 0, 0, 0
	for _, tgt := range targets {
		for _, v := range variants {
			p, err := tgt.build()
			if err != nil {
				fatal(err)
			}
			cfg := v.Apply(core.ScaledConfig())
			cfg.Verify = true
			cfg.Equiv = *equivOn
			cfg.EnableSink = *sink
			if *dynL {
				cfg.Pack.DynamicLaunch = true
				cfg.Pack.EnableLinking = false
			}
			rec := obs.NewRecorder()
			out, err := core.RunObserved(cfg, cpu.DefaultConfig(), p, rec)
			checked := rec.Export().Metrics.Counters[obs.VerifyChecked.Name]
			label := fmt.Sprintf("%s [%s]", tgt.name, v.Name())
			switch {
			case err == nil:
				if !*quiet {
					fmt.Printf("ok    %-44s %3d checks\n", label, checked)
					if *equivOn {
						for _, c := range out.Equiv {
							fmt.Printf("      %s\n", c.Verdict())
						}
					}
				}
			case errors.Is(err, core.ErrNoPhases) || errors.Is(err, core.ErrNoPackages):
				// Nothing extracted means nothing to verify; not a failure.
				if !*quiet {
					fmt.Printf("skip  %-44s (%v)\n", label, err)
				}
			case errors.Is(err, core.ErrVerifyFailed):
				diags := verify.Diagnostics(err)
				violations += len(diags)
				fmt.Printf("FAIL  %-44s %d violation(s) after %d checks\n", label, len(diags), checked)
				for _, d := range diags {
					fmt.Printf("      %s\n", d)
				}
			case errors.Is(err, core.ErrNotEquivalent):
				ces := equiv.Counterexamples(err)
				refuted++
				fmt.Printf("FAIL  %-44s translation validation refuted (%d counterexample(s))\n", label, len(ces))
				for _, ce := range ces {
					fmt.Printf("      %s\n", ce.String())
				}
			default:
				failures++
				fmt.Printf("ERROR %-44s %v\n", label, err)
			}
		}
	}
	if violations > 0 || refuted > 0 {
		fmt.Printf("vpverify: %d rule violation(s), %d refuted proof(s)\n", violations, refuted)
	} else if failures == 0 {
		fmt.Println("vpverify: all checks passed")
	}
	os.Exit(exitStatus(violations, refuted, failures))
}

// exitStatus is the verdict's exit status: 3 when any rule fired,
// otherwise 4 when any proof was refuted, otherwise 1 when the pipeline
// failed, otherwise 0: the precedence vpack and vpbench give the two
// gates.
func exitStatus(violations, refuted, failures int) int {
	switch {
	case violations > 0:
		return 3
	case refuted > 0:
		return 4
	case failures > 0:
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vpverify:", err)
	os.Exit(1)
}
