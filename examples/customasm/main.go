// customasm: write a VPIR program by hand in assembly, profile it with the
// Hot Spot Detector, extract packages, and disassemble the result — the
// full post-link-optimizer workflow on code you control instruction by
// instruction.
//
//	go run ./examples/customasm
package main

import (
	"fmt"
	"log"
	"strings"

	vp "repro"
)

// A two-phase program: phase 1 scans an array summing positives; phase 2
// scans it counting negatives. Both phases share the scan loop (the shared
// root that package linking exists for); the branch in the middle flips
// bias between the phases.
const src = `
; data: phase table + 64-element array
.data 0

.func fillarray            ; arr[i] = (i*2654435761) % 97 - 48
  li r1, 0                 ; i
  li r2, 64
  li r5, 1048584           ; &arr[0] (DataBase + 8)
fill:
  muli r3, r1, 2654435761
  li r4, 97
  rem r3, r3, r4
  addi r3, r3, -48
  shli r4, r1, 3
  add r4, r4, r5
  st r3, 0(r4)
  addi r1, r1, 1
  blt r1, r2, fill
  ret

.func scan                 ; one pass over the array; r20 = mode (0 sum+, 1 count-)
  addi sp, sp, -8
  st ra, 0(sp)
  li r1, 0                 ; i
  li r2, 64
  li r5, 1048584
  li r6, 0                 ; result accumulator
loop:
  shli r4, r1, 3
  add r4, r4, r5
  ld r3, 0(r4)
  blt r3, r0, negative     ; bias flips with the data mix per phase
positive:
  beq r20, r0, addpos
  jmp next
addpos:
  add r6, r6, r3
  jmp next
negative:
  beq r20, r0, next
  addi r6, r6, 1
next:
  addi r1, r1, 1
  blt r1, r2, loop
  st r6, 1048576(r0)       ; publish result at DataBase
  ld ra, 0(sp)
  addi sp, sp, 8
  ret

.func main
.main
  call fillarray
  li r20, 0                ; phase 1: sum positives, many times
  li r21, 3000
phase1:
  call scan
  addi r21, r21, -1
  bne r21, r0, phase1
  li r20, 1                ; phase 2: count negatives
  li r21, 3000
phase2:
  call scan
  addi r21, r21, -1
  bne r21, r0, phase2
  halt
`

func main() {
	program, err := vp.Assemble(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("assembled %d functions, %d instructions\n", len(program.Funcs), program.NumInsts())

	cfg := vp.ScaledConfig()
	outcome, err := vp.Run(cfg, vp.DefaultMachine(), program)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("detected %d phases from %d raw detections\n",
		len(outcome.DB.Phases), outcome.Profile.Detections)

	for _, pk := range outcome.Pack.Packages {
		linked := 0
		for _, e := range pk.Exits {
			if e.Linked != nil {
				linked++
			}
		}
		fmt.Printf("  package %-18s root=%-6s blocks=%-3d exits=%d (%d linked)\n",
			pk.Fn.Name, pk.Root.Name, len(pk.Fn.Blocks), len(pk.Exits), linked)
	}

	ev, err := outcome.Evaluate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coverage %.1f%%, speedup %.3fx, equivalent=%v\n",
		ev.Coverage*100, ev.Speedup, ev.Equivalent)

	// Show the extracted code the way a post-link tool would: disassemble
	// the first package.
	if len(outcome.Pack.Packages) > 0 {
		text := vp.Disassemble(outcome.Packed)
		name := outcome.Pack.Packages[0].Fn.Name
		fmt.Printf("\ndisassembly of %s:\n", name)
		inPkg := false
		lines := 0
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, ".func ") {
				inPkg = strings.Contains(line, name)
			}
			if inPkg && lines < 30 {
				fmt.Println(line)
				lines++
			}
		}
	}
}
