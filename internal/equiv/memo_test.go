package equiv_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/equiv"
	"repro/internal/isa"
	"repro/internal/prog"
)

// TestMemoHitMatchesFreshProof proves every corpus target through a memo,
// then poses the same obligations from a second, independent build (new
// pointers, same block IDs and names: what a daemon repack poses). Every
// lookup of the second build must hit, and each hit must be deeply equal
// to a fresh Prove and unaffected by a caller editing an earlier hit.
func TestMemoHitMatchesFreshProof(t *testing.T) {
	var m equiv.Memo
	first := buildTargets(t)
	for _, tg := range first {
		if _, err := m.Prove(tg.snap, equiv.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := m.TakeCounts(); hits != 0 || misses != int64(len(first)) {
		t.Fatalf("first build: %d hits, %d misses, want 0 and %d", hits, misses, len(first))
	}
	second := buildTargets(t)
	for _, tg := range second {
		hit, herr := m.Prove(tg.snap, equiv.Config{})
		fresh, ferr := equiv.Prove(tg.snap, equiv.Config{})
		if !reflect.DeepEqual(hit, fresh) || !reflect.DeepEqual(herr, ferr) {
			t.Fatalf("%s: memo hit %+v (%v), fresh proof %+v (%v)", tg.snap.Package(), hit, herr, fresh, ferr)
		}
		hit.PathsProved = -1
		if again, _ := m.Prove(tg.snap, equiv.Config{}); !reflect.DeepEqual(again, fresh) {
			t.Fatalf("%s: editing a returned certificate changed the memo: %+v", tg.snap.Package(), again)
		}
	}
	if hits, misses := m.TakeCounts(); hits != int64(2*len(second)) || misses != 0 {
		t.Fatalf("second build: %d hits, %d misses, want %d and 0", hits, misses, 2*len(second))
	}
	var nilMemo *equiv.Memo
	if cert, err := nilMemo.Prove(first[0].snap, equiv.Config{}); err != nil || !cert.Equivalent {
		t.Fatalf("nil memo: %v", err)
	}
}

// TestMemoGenerations checks the two-generation lifetime: Rotate keeps
// what was looked up since the previous Rotate or Discard, Discard drops
// it and keeps the retained generation.
func TestMemoGenerations(t *testing.T) {
	targets := buildTargets(t)
	if len(targets) < 2 {
		t.Skip("corpus workload built one package")
	}
	a, b := targets[0].snap, targets[1].snap
	var m equiv.Memo
	prove := func(s *equiv.Snapshot) {
		t.Helper()
		if _, err := m.Prove(s, equiv.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(step string, hits, misses int64) {
		t.Helper()
		if h, ms := m.TakeCounts(); h != hits || ms != misses {
			t.Fatalf("%s: %d hits, %d misses, want %d and %d", step, h, ms, hits, misses)
		}
	}
	prove(a)
	m.Rotate() // retains {a}
	prove(b)
	m.Discard() // drops b, keeps {a}
	expect("fill", 0, 2)
	prove(a)
	prove(b)
	expect("after discard", 1, 1)
	m.Rotate() // retains {a, b}
	prove(b)
	m.Rotate() // retains {b}
	prove(a)
	prove(b)
	expect("after rotations", 2, 1)
}

// TestMemoKeepsMutantsRefuted is the key-completeness check: a memo
// warmed with the clean proofs of a build must still refute every
// mutation of that build, with exactly the refutation a fresh Prove
// gives. A key that omitted a field some mutation changes would serve
// the clean certificate instead.
func TestMemoKeepsMutantsRefuted(t *testing.T) {
	for _, m := range mutations {
		m := m
		t.Run(m.name, func(t *testing.T) {
			catchMutant(t, m, func(targets []*target) proveFn {
				var memo equiv.Memo
				for _, tg := range targets {
					if _, err := memo.Prove(tg.snap, equiv.Config{}); err != nil {
						t.Fatal(err)
					}
				}
				return func(s *equiv.Snapshot) (*equiv.Certificate, error) {
					cert, err := memo.Prove(s, equiv.Config{})
					fresh, ferr := equiv.Prove(s, equiv.Config{})
					if !reflect.DeepEqual(cert, fresh) || fmt.Sprint(err) != fmt.Sprint(ferr) {
						t.Errorf("%s: memo gave %+v (%v), fresh proof %+v (%v)", m.name, cert, err, fresh, ferr)
					}
					return cert, err
				}
			})
		})
	}
}

// TestObligationKeyCoversEveryField changes each field of one live block
// that the prover reads, one at a time, and requires the memo key to
// change with it and to come back when the field is restored. The
// mutation corpus checks the same property through whole proofs, but
// only for the fields its bugs happen to touch.
func TestObligationKeyCoversEveryField(t *testing.T) {
	targets := buildTargets(t)
	var tg *target
	var b *prog.Block
	for _, c := range targets {
		for _, blk := range c.fn.Blocks {
			if blk.Kind == prog.TermBranch && len(blk.Insts) > 0 && blk.Taken != blk {
				tg, b = c, blk
				break
			}
		}
		if b != nil {
			break
		}
	}
	if b == nil {
		t.Fatal("no branch block with instructions in the corpus packages")
	}
	ins := b.Insts
	saved := slices.Clone(ins)
	kind, cmpOp, rs1, rs2, taken, next, callee, consumes := b.Kind, b.CmpOp, b.Rs1, b.Rs2, b.Taken, b.Next, b.Callee, b.ExitConsumes
	restore := func() {
		copy(ins, saved)
		b.Kind, b.CmpOp, b.Rs1, b.Rs2, b.Taken, b.Next, b.Callee, b.ExitConsumes = kind, cmpOp, rs1, rs2, taken, next, callee, consumes
	}
	other := isa.NOP
	if ins[0].Op == isa.NOP {
		other = isa.ADD
	}
	fields := []struct {
		name   string
		change func()
	}{
		{"instruction opcode", func() { ins[0].Op = other }},
		{"instruction rd", func() { ins[0].Rd ^= 1 }},
		{"instruction rs1", func() { ins[0].Rs1 ^= 1 }},
		{"instruction rs2", func() { ins[0].Rs2 ^= 1 }},
		{"instruction immediate", func() { ins[0].Imm++ }},
		{"instruction target", func() { ins[0].Target++ }},
		{"instruction block target", func() {
			if ins[0].BlockTarget == b {
				ins[0].BlockTarget = nil
			} else {
				ins[0].BlockTarget = b
			}
		}},
		{"terminator kind", func() { b.Kind = prog.TermFall }},
		{"comparison", func() { b.CmpOp ^= 1 }},
		{"branch rs1", func() { b.Rs1 ^= 1 }},
		{"branch rs2", func() { b.Rs2 ^= 1 }},
		{"taken arc", func() { b.Taken = b }},
		{"next arc", func() { b.Next = b }},
		{"callee", func() { b.Callee = tg.fn }},
		{"exit consumes", func() { b.ExitConsumes = append(slices.Clone(consumes), isa.Reg(7)) }},
	}
	base := equiv.ObligationKey(tg.snap)
	if base == "" {
		t.Fatal("the encoder refused a clean corpus package")
	}
	for _, f := range fields {
		f.change()
		changed := equiv.ObligationKey(tg.snap)
		restore()
		if changed == base {
			t.Errorf("the memo key ignores the %s", f.name)
		}
		if equiv.ObligationKey(tg.snap) != base {
			t.Fatalf("restoring the %s did not restore the key", f.name)
		}
	}
}
