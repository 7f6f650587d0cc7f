// Quickstart: run the complete Vacuum Packing pipeline on one benchmark
// through the public API and print what it did at every stage.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	vp "repro"
)

func main() {
	// 1. Build a phased workload (a perl-like interpreter with three
	//    command-mix phases).
	bench, err := vp.Benchmark("perl")
	if err != nil {
		log.Fatal(err)
	}
	input, err := bench.InputByName("A")
	if err != nil {
		log.Fatal(err)
	}
	program := bench.Build(input)
	fmt.Printf("program: %d functions, %d basic blocks, %d static instructions\n",
		len(program.Funcs), program.NumBlocks(), program.NumInsts())

	// 2. Run the pipeline: profile under the Hot Spot Detector on the
	//    EPIC machine model (the profile run doubles as the baseline),
	//    filter phases, identify regions, extract + link + optimize
	//    packages.
	outcome, err := vp.Run(vp.ScaledConfig(), vp.DefaultMachine(), program)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiled %d instructions, %d conditional branches\n",
		outcome.Profile.Insts, outcome.Profile.Branches)
	fmt.Printf("detector fired %d times -> %d unique phases after filtering\n",
		outcome.Profile.Detections, len(outcome.DB.Phases))
	for _, r := range outcome.Regions {
		fmt.Printf("  phase %d region: %d profiled branches, %d hot blocks (+%d inferred, %d grown)\n",
			r.PhaseID, r.ProfiledBranches, r.NumHot(), r.InferredHot, r.GrownBlocks)
	}
	fmt.Printf("built %d packages, %d links, %d launch points\n",
		len(outcome.Pack.Packages), outcome.Pack.Links, outcome.Pack.LaunchPoints)
	fmt.Printf("static code: +%.1f%% growth, %.1f%% of instructions selected, replication %.2fx\n",
		outcome.Pack.CodeGrowth()*100, outcome.Pack.SelectedFraction()*100, outcome.Pack.Replication())

	// 3. Evaluate: time the packed program on the same machine model,
	//    compare it with the profile run's baseline and confirm both
	//    compute the same results. The packed run is bounded by a budget
	//    derived from the baseline, so a package that never halts fails
	//    with vacuumpack.ErrInstLimit instead of hanging.
	ev, err := outcome.Evaluate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline: %d cycles (IPC %.2f)\n", ev.Base.Cycles, ev.Base.IPC())
	fmt.Printf("packed:   %d cycles (IPC %.2f)\n", ev.Packed.Cycles, ev.Packed.IPC())
	fmt.Printf("coverage: %.1f%% of dynamic instructions ran inside packages\n", ev.Coverage*100)
	fmt.Printf("speedup:  %.3fx, functionally equivalent: %v\n", ev.Speedup, ev.Equivalent)
}
