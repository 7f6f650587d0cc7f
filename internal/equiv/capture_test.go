package equiv_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/equiv"
	"repro/internal/prog"
	"repro/internal/workload"
)

// TestCaptureAllMatchesCapture: the one-scan CaptureAll gives every
// package of every suite input (scale 1, Equiv on) the snapshot that a
// per-package Capture of the same program gives, and entry sets computed
// here from Capture's definition. Packages with an entry only an escaped
// address makes are counted, so the check is known to cover the index of
// escaped block addresses.
func TestCaptureAllMatchesCapture(t *testing.T) {
	cfg := core.ScaledConfig()
	cfg.Equiv = true
	packages, escaped := 0, 0
	for _, b := range workload.Ordered() {
		for _, in := range b.Inputs {
			in.Scale = 1
			out, err := core.Run(cfg, cpu.DefaultConfig(), b.Build(in))
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, in.Name, err)
			}
			pkgs := out.Pack.Packages
			fns := make([]*prog.Func, len(pkgs))
			entries := make([][]*prog.Block, len(pkgs))
			for i, pk := range pkgs {
				fns[i] = pk.Fn
				for _, c := range pk.Entries {
					entries[i] = append(entries[i], c)
				}
			}
			all := equiv.CaptureAll(out.Packed, fns, entries)
			for i, fn := range fns {
				want, byIndex := referenceEntries(out.Packed, fn, entries[i])
				if got := all[i].Entries(); !slices.Equal(got, want) {
					t.Errorf("%s/%s: package %s: CaptureAll entries %v, want %v", b.Name, in.Name, fn.Name, got, want)
				}
				if one := equiv.Capture(out.Packed, fn, entries[i]); !reflect.DeepEqual(all[i], one) {
					t.Errorf("%s/%s: package %s: CaptureAll snapshot differs from Capture's (entries %v, want %v)",
						b.Name, in.Name, fn.Name, all[i].Entries(), one.Entries())
				}
				packages++
				if byIndex {
					escaped++
				}
			}
		}
	}
	if packages == 0 || escaped == 0 {
		t.Fatalf("%d packages, %d with an escaped block address: the target index went unchecked", packages, escaped)
	}
}

// referenceEntries is Capture's entry set for fn, computed here from its
// definition: the seeds, fn's entry block, every block with a predecessor
// outside fn and every block whose address an instruction of p takes, in
// block-ID order. byIndex reports whether some entry is there only
// because its address escapes. p's predecessor lists must be current.
func referenceEntries(p *prog.Program, fn *prog.Func, seeds []*prog.Block) (entries []*prog.Block, byIndex bool) {
	in := make(map[*prog.Block]bool)
	add := func(b *prog.Block) {
		if b != nil && b.Fn == fn {
			in[b] = true
		}
	}
	for _, b := range seeds {
		add(b)
	}
	add(fn.Entry())
	for _, b := range fn.Blocks {
		for _, pr := range b.Preds() {
			if pr.Fn != fn {
				add(b)
			}
		}
	}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, ins := range b.Insts {
				if bt := ins.BlockTarget; bt != nil && bt.Fn == fn && !in[bt] {
					byIndex = true
				}
				add(ins.BlockTarget)
			}
		}
	}
	for b := range in {
		entries = append(entries, b)
	}
	slices.SortFunc(entries, func(x, y *prog.Block) int { return x.ID - y.ID })
	return entries, byIndex
}
