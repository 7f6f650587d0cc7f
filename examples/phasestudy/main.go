// phasestudy: reproduce the paper's m88ksim observation interactively —
// two program phases share a launch point, and package linking is what
// makes the second phase's specialized code reachable (§5.1). The example
// runs all four evaluation configurations and prints the coverage/speedup
// matrix for one benchmark.
//
//	go run ./examples/phasestudy [benchmark]
package main

import (
	"fmt"
	"log"
	"os"

	vp "repro"
)

func main() {
	name := "m88ksim"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	bench, err := vp.Benchmark(name)
	if err != nil {
		log.Fatal(err)
	}
	input := bench.Inputs[0]

	fmt.Printf("%s (%s): four configurations, fresh pipeline each\n\n", bench.Name, bench.Paper)
	fmt.Printf("%-24s %10s %10s %9s %7s %7s\n",
		"configuration", "coverage", "speedup", "packages", "links", "phases")
	for _, v := range vp.Variants() {
		cfg := v.Apply(vp.ScaledConfig())
		outcome, err := vp.Run(cfg, vp.DefaultMachine(), bench.Build(input))
		if err != nil {
			log.Fatal(err)
		}
		ev, err := outcome.Evaluate()
		if err != nil {
			log.Fatal(err)
		}
		if !ev.Equivalent {
			log.Fatalf("%s: packed program diverged", v.Name())
		}
		fmt.Printf("%-24s %9.1f%% %10.3f %9d %7d %7d\n",
			v.Name(), ev.Coverage*100, ev.Speedup,
			len(outcome.Pack.Packages), outcome.Pack.Links, len(outcome.Regions))
	}
	fmt.Println("\nEvery phase shares the same root function, so without linking only the")
	fmt.Println("left-most package is reachable from the shared launch point; its")
	fmt.Println("specialization is wrong for the other phase and execution keeps falling")
	fmt.Println("out through cold exits. Links retarget those exits into the sibling")
	fmt.Println("package built for the phase that is actually running.")
}
