package asm

import (
	"testing"

	"repro/internal/prog"
	"repro/internal/workload"
)

// checkRoundTrip asserts the disassembler's contract on p: the text
// reassembles, and the result linearizes to p's code image, entry and
// data segment.
func checkRoundTrip(t *testing.T, p *prog.Program) {
	t.Helper()
	img1, err := p.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	text := Disassemble(p)
	p2, err := Assemble(text)
	if err != nil {
		t.Fatalf("reassembly failed: %v\n%s", err, text)
	}
	img2, err := p2.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	if len(img1.Code) != len(img2.Code) {
		t.Fatalf("image sizes differ: %d vs %d\n%s", len(img1.Code), len(img2.Code), text)
	}
	for i := range img1.Code {
		if img1.Code[i] != img2.Code[i] {
			t.Fatalf("slot %d differs: %v vs %v", i, img1.Code[i], img2.Code[i])
		}
	}
	if img1.Entry != img2.Entry {
		t.Fatal("entry addresses differ")
	}
	if len(p.Data) != len(p2.Data) {
		t.Fatal("data segments differ in length")
	}
	for i := range p.Data {
		if p.Data[i] != p2.Data[i] {
			t.Fatalf("data[%d] differs", i)
		}
	}
}

// Property (DESIGN.md §6): for every workload program — thousands of
// blocks, every terminator kind, FP code, recursion — disassembling and
// reassembling produces an identical code image and data segment.
func TestDisassembleRoundTripAllWorkloads(t *testing.T) {
	for _, b := range workload.All() {
		t.Run(b.Name, func(t *testing.T) {
			in := b.Inputs[0]
			in.Scale = 1
			checkRoundTrip(t, b.Build(in))
		})
	}
}

// FuzzAssemble feeds the assembler arbitrary text. It must never panic,
// and any program it accepts must survive the disassembly round trip.
// The seed corpus (testdata/fuzz/FuzzAssemble) holds a hand-written
// two-phase program and that program's packed form.
func FuzzAssemble(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			return
		}
		checkRoundTrip(t, p)
	})
}
