package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/prog"
)

// Random builds a structurally random phased program with the workload
// DSL: a random worker forest with random decisions, guards,
// gates and phase scripts. Termination is guaranteed by construction
// (worker loops count down), so every generated program is a valid
// pipeline input.
func Random(r *rand.Rand) *prog.Program {
	w := NewW()
	arr := w.NewArray(256)
	arr2 := w.NewArray(256)

	// A layered worker forest: layer-N workers may call layer-(N+1) ones,
	// so the call graph is acyclic (recursion is covered by its own unit
	// tests; random recursion depths make run time unpredictable).
	nLeaves := 1 + r.Intn(3)
	leaves := make([]Callee, 0, nLeaves)
	for i := 0; i < nLeaves; i++ {
		var ds []Param
		for d := 0; d < 1+r.Intn(3); d++ {
			ds = append(ds, w.NewParam(int64(r.Intn(1001))))
		}
		opts := FuncOpts{
			Decisions: ds,
			ArrayA:    arr, ArrayB: arr2, ArrayWords: 256,
			ALUWork:   r.Intn(3),
			FP:        r.Intn(4) == 0,
			IterParam: w.NewParam(int64(1 + r.Intn(3))),
		}
		if r.Intn(2) == 0 {
			opts.Guards = 1 + r.Intn(6)
			opts.GuardProb = w.NewParam(int64(r.Intn(40)))
		}
		fn := w.Worker(fmt.Sprintf("leaf%d", i), opts)
		leaves = append(leaves, Callee{Fn: fn, Gate: w.NewParam(int64(r.Intn(1001)))})
	}
	nMids := 1 + r.Intn(2)
	gates := make([]Param, 0, nMids)
	mids := make([]Callee, 0, nMids)
	for i := 0; i < nMids; i++ {
		var calls []Callee
		for _, l := range leaves {
			if r.Intn(2) == 0 {
				calls = append(calls, l)
			}
		}
		fn := w.Worker(fmt.Sprintf("mid%d", i), FuncOpts{
			Decisions: []Param{w.NewParam(int64(r.Intn(1001)))},
			ArrayA:    arr2, ArrayB: arr, ArrayWords: 256,
			ALUWork:   1,
			Callees:   calls,
			IterParam: w.NewParam(int64(1 + r.Intn(3))),
		})
		g := w.NewParam(0)
		gates = append(gates, g)
		mids = append(mids, Callee{Fn: fn, Gate: g})
	}
	drvIt := w.NewParam(0)
	drv := w.Worker("drv", FuncOpts{
		ArrayA: arr, ArrayB: arr2, ArrayWords: 256, ALUWork: 1,
		Callees:   mids,
		IterParam: drvIt,
	})

	nPhases := 1 + r.Intn(3)
	script := make([][]PhaseStep, 0, nPhases)
	for p := 0; p < nPhases; p++ {
		var steps []PhaseStep
		for _, g := range gates {
			steps = append(steps, SetP(g, int64(r.Intn(1001))))
		}
		steps = append(steps, w.DriverBurst(drvIt, int64(200+r.Intn(600)), drv)...)
		script = append(script, steps)
	}
	w.MainOf(script)
	return w.Finish(int64(r.Uint64()>>1) | 1)
}
