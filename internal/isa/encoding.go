package isa

import (
	"encoding/binary"
	"fmt"
)

// Binary encoding. Each instruction packs into 16 bytes:
//
//	byte 0     opcode
//	byte 1     rd
//	byte 2     rs1
//	byte 3     rs2
//	bytes 4-7  target (uint32, instruction-slot address)
//	bytes 8-15 immediate (int64, little endian)
//
// The encoding exists so round-trip properties pin down the instruction
// format; the simulator executes decoded Inst values directly, and code
// is stored and served as VPIR text (internal/asm).

// EncodedSize is the byte length of one encoded instruction.
const EncodedSize = 16

// MaxTarget is the largest encodable control-flow target.
const MaxTarget = 1<<32 - 1

// Encode packs the instruction into buf, which must be at least EncodedSize
// bytes. It returns an error for invalid opcodes, registers, or targets out
// of range.
func (in Inst) Encode(buf []byte) error {
	if len(buf) < EncodedSize {
		return fmt.Errorf("isa: encode buffer too small: %d < %d", len(buf), EncodedSize)
	}
	if !in.Op.Valid() {
		return fmt.Errorf("isa: encode: invalid opcode %d", uint8(in.Op))
	}
	for _, r := range [...]Reg{in.Rd, in.Rs1, in.Rs2} {
		if !r.Valid() {
			return fmt.Errorf("isa: encode %s: invalid register %d", in.Op, uint8(r))
		}
	}
	if in.Target < 0 || in.Target > MaxTarget {
		return fmt.Errorf("isa: encode %s: target %d out of range", in.Op, in.Target)
	}
	buf[0] = byte(in.Op)
	buf[1] = byte(in.Rd)
	buf[2] = byte(in.Rs1)
	buf[3] = byte(in.Rs2)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(in.Target))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(in.Imm))
	return nil
}

// Decode unpacks one instruction from buf.
func Decode(buf []byte) (Inst, error) {
	if len(buf) < EncodedSize {
		return Inst{}, fmt.Errorf("isa: decode buffer too small: %d < %d", len(buf), EncodedSize)
	}
	in := Inst{
		Op:     Opcode(buf[0]),
		Rd:     Reg(buf[1]),
		Rs1:    Reg(buf[2]),
		Rs2:    Reg(buf[3]),
		Target: int64(binary.LittleEndian.Uint32(buf[4:8])),
		Imm:    int64(binary.LittleEndian.Uint64(buf[8:16])),
	}
	if !in.Op.Valid() {
		return Inst{}, fmt.Errorf("isa: decode: invalid opcode %d", buf[0])
	}
	for _, r := range [...]Reg{in.Rd, in.Rs1, in.Rs2} {
		if !r.Valid() {
			return Inst{}, fmt.Errorf("isa: decode %s: invalid register %d", in.Op, uint8(r))
		}
	}
	return in, nil
}
