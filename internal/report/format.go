package report

import (
	"fmt"
	"strings"

	"repro/internal/cpu"
	"repro/internal/phasedb"
)

func bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}

// Table1 renders the benchmark/input inventory with dynamic instruction
// counts (the reproduction's analogue of the paper's Table 1).
func (s *Suite) Table1() string {
	var sb strings.Builder
	sb.WriteString("Table 1. Benchmarks and inputs used in experiments.\n")
	fmt.Fprintf(&sb, "%-10s %-5s %-42s %12s %12s\n", "Benchmark", "Input", "Stands in for", "# of Inst", "# of Branch")
	for _, r := range s.Results {
		fmt.Fprintf(&sb, "%-10s %-5s %-42s %12d %12d\n", r.Bench, r.Input, r.Paper, r.DynInsts, r.Branches)
	}
	return sb.String()
}

// Table2 renders the machine model (the paper's Table 2).
func Table2(mc cpu.Config) string {
	var sb strings.Builder
	sb.WriteString("Table 2. Simulated EPIC machine model.\n")
	rows := [][2]string{
		{"Instruction issue", fmt.Sprintf("%d units", mc.IssueWidth)},
		{"Integer ALU", fmt.Sprintf("%d units", mc.IntALUs)},
		{"Floating point unit", fmt.Sprintf("%d units", mc.FPUnits)},
		{"Memory unit", fmt.Sprintf("%d units", mc.MemUnits)},
		{"Branch unit", fmt.Sprintf("%d units", mc.BranchUnits)},
		{"L1 data cache", fmt.Sprintf("%d KB", mc.L1DSizeBytes>>10)},
		{"L1 instruction cache", fmt.Sprintf("%d KB", mc.L1ISizeBytes>>10)},
		{"Unified L2 cache", fmt.Sprintf("%d KB", mc.L2SizeBytes>>10)},
		{"Cache associativity", fmt.Sprintf("%d-way", mc.CacheWays)},
		{"L2 latency", fmt.Sprintf("%d cycles", mc.L2Latency)},
		{"Memory latency", fmt.Sprintf("%d cycles", mc.MemLatency)},
		{"RAS size", fmt.Sprintf("%d entry", mc.RASEntries)},
		{"BTB size", fmt.Sprintf("%d entry", mc.BTBEntries)},
		{"Branch resolution", fmt.Sprintf("%d cycles", mc.BranchResolution)},
		{"Branch predictor", fmt.Sprintf("%d-bit history gshare", mc.GshareBits)},
	}
	for _, row := range rows {
		fmt.Fprintf(&sb, "  %-24s %s\n", row[0], row[1])
	}
	return sb.String()
}

func variantHeaders() []string {
	return []string{"noInf/noLink", "noInf/link", "inf/noLink", "inf/link"}
}

// Figure8 renders package coverage per input under the four configurations.
func (s *Suite) Figure8() string {
	var sb strings.Builder
	sb.WriteString("Figure 8. Percent of dynamic instructions from within packages.\n")
	fmt.Fprintf(&sb, "%-10s %-5s", "Benchmark", "Input")
	for _, h := range variantHeaders() {
		fmt.Fprintf(&sb, " %12s", h)
	}
	sb.WriteString("  [inf/link]\n")
	sums := make([]float64, 4)
	for _, r := range s.Results {
		fmt.Fprintf(&sb, "%-10s %-5s", r.Bench, r.Input)
		for i, v := range r.Variants {
			fmt.Fprintf(&sb, " %11.1f%%", v.Coverage*100)
			sums[i] += v.Coverage
		}
		fmt.Fprintf(&sb, "  %s\n", bar(r.Full().Coverage, 25))
	}
	fmt.Fprintf(&sb, "%-10s %-5s", "average", "")
	n := float64(len(s.Results))
	for _, x := range sums {
		fmt.Fprintf(&sb, " %11.1f%%", x/n*100)
	}
	sb.WriteString("\n")
	return sb.String()
}

// Table3 renders static code expansion for the full configuration.
func (s *Suite) Table3() string {
	var sb strings.Builder
	sb.WriteString("Table 3. Code Expansion (inference + linking).\n")
	fmt.Fprintf(&sb, "%-10s %-5s %12s %16s %12s\n",
		"Benchmark", "Input", "% Incr size", "% Static selected", "Replication")
	var g, sel, rep float64
	for _, r := range s.Results {
		v := r.Full()
		fmt.Fprintf(&sb, "%-10s %-5s %12.1f %16.1f %12.2f\n",
			r.Bench, r.Input, v.Growth*100, v.Selected*100, v.Repl)
		g += v.Growth
		sel += v.Selected
		rep += v.Repl
	}
	n := float64(len(s.Results))
	fmt.Fprintf(&sb, "%-10s %-5s %12.1f %16.1f %12.2f\n", "average", "", g/n*100, sel/n*100, rep/n)
	return sb.String()
}

// Figure9 renders the hot-spot branch categorization, dynamic-weighted.
func (s *Suite) Figure9() string {
	var sb strings.Builder
	sb.WriteString("Figure 9. Categorization of hot spot branch behavior (dynamic-weighted).\n")
	fmt.Fprintf(&sb, "%-10s %-5s", "Benchmark", "Input")
	for c := phasedb.Category(0); c < phasedb.NumCategories; c++ {
		fmt.Fprintf(&sb, " %14s", c)
	}
	sb.WriteString("\n")
	var sums [phasedb.NumCategories]float64
	for _, r := range s.Results {
		fmt.Fprintf(&sb, "%-10s %-5s", r.Bench, r.Input)
		for c := phasedb.Category(0); c < phasedb.NumCategories; c++ {
			f := r.Categories.Fraction(c)
			sums[c] += f
			fmt.Fprintf(&sb, " %13.1f%%", f*100)
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "%-10s %-5s", "average", "")
	n := float64(len(s.Results))
	for c := phasedb.Category(0); c < phasedb.NumCategories; c++ {
		fmt.Fprintf(&sb, " %13.1f%%", sums[c]/n*100)
	}
	sb.WriteString("\n")
	return sb.String()
}

// Figure10 renders speedup per input under the four configurations.
func (s *Suite) Figure10() string {
	var sb strings.Builder
	sb.WriteString("Figure 10. Performance speedup from relayout and rescheduling of packages.\n")
	fmt.Fprintf(&sb, "%-10s %-5s", "Benchmark", "Input")
	for _, h := range variantHeaders() {
		fmt.Fprintf(&sb, " %12s", h)
	}
	sb.WriteString("  equivalence\n")
	sums := make([]float64, 4)
	for _, r := range s.Results {
		fmt.Fprintf(&sb, "%-10s %-5s", r.Bench, r.Input)
		eq := true
		for i, v := range r.Variants {
			fmt.Fprintf(&sb, " %12.3f", v.Speedup)
			sums[i] += v.Speedup
			eq = eq && v.Equivalent
		}
		mark := "ok"
		if !eq {
			mark = "DIVERGED"
		}
		fmt.Fprintf(&sb, "  %s\n", mark)
	}
	fmt.Fprintf(&sb, "%-10s %-5s", "average", "")
	n := float64(len(s.Results))
	for _, x := range sums {
		fmt.Fprintf(&sb, " %12.3f", x/n)
	}
	if s.Diverged() == 0 {
		sb.WriteString("  all runs functionally equivalent\n")
	} else {
		sb.WriteString("  SOME RUNS DIVERGED\n")
	}
	return sb.String()
}
