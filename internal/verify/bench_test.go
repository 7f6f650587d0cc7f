package verify_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/workload"
)

// BenchmarkPipelineVerify runs one full pipeline (profile, package, link,
// optimize, evaluate) with the stage-gating verifier off and on. The
// off/on delta is the verifier's serial cost per pipeline run — the
// number the <3% suite-overhead budget in scripts/bench.sh rides on.
func BenchmarkPipelineVerify(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			bench, err := workload.ByName("perl")
			if err != nil {
				b.Fatal(err)
			}
			in := bench.Inputs[0]
			in.Scale = 1
			for i := 0; i < b.N; i++ {
				p := bench.Build(in)
				cfg := core.ScaledConfig()
				cfg.Verify = on
				if _, err := core.Run(cfg, cpu.DefaultConfig(), p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
