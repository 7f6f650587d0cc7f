package cpu

// Predictor bundles the front-end prediction structures of the evaluation
// machine: a gshare conditional-branch predictor, a branch target buffer
// for taken control transfers, and a return address stack.
type Predictor struct {
	historyBits uint
	history     uint64
	pht         []uint8 // 2-bit saturating counters

	btb     []int64 // direct-mapped: tag<<32 | target is overkill; store pc and target
	btbPC   []int64
	btbSize int
	btbMask uint64 // btbSize-1; entry count is rounded to a power of two

	ras    []int64
	rasTop int

	CondSeen       uint64
	CondMispredict uint64
	BTBMisses      uint64
	RASMisses      uint64
}

// NewPredictor builds a predictor with a 2^historyBits-entry PHT, the given
// BTB entry count (rounded up to a power of two so the index is a mask
// rather than a division) and RAS depth.
func NewPredictor(historyBits uint, btbEntries, rasDepth int) *Predictor {
	pow2 := 1
	for pow2 < btbEntries {
		pow2 <<= 1
	}
	btbEntries = pow2
	pow2 = 1
	for pow2 < rasDepth {
		pow2 <<= 1
	}
	rasDepth = pow2
	p := &Predictor{
		historyBits: historyBits,
		pht:         make([]uint8, 1<<historyBits),
		btb:         make([]int64, btbEntries),
		btbPC:       make([]int64, btbEntries),
		btbSize:     btbEntries,
		btbMask:     uint64(btbEntries - 1),
		ras:         make([]int64, rasDepth),
	}
	for i := range p.pht {
		p.pht[i] = 1 // weakly not taken
	}
	for i := range p.btbPC {
		p.btbPC[i] = -1
	}
	return p
}

func (p *Predictor) phtIndex(pc int64) int {
	return int((uint64(pc) ^ p.history) & (1<<p.historyBits - 1))
}

// PredictCond predicts the direction of the conditional branch at pc, then
// updates predictor state with the actual outcome and reports whether the
// prediction was correct.
func (p *Predictor) PredictCond(pc int64, actual bool) bool {
	p.CondSeen++
	idx := p.phtIndex(pc)
	pred := p.pht[idx] >= 2
	if actual {
		if p.pht[idx] < 3 {
			p.pht[idx]++
		}
	} else if p.pht[idx] > 0 {
		p.pht[idx]--
	}
	p.history = (p.history<<1 | b2u(actual)) & (1<<p.historyBits - 1)
	if pred != actual {
		p.CondMispredict++
		return false
	}
	return true
}

// LookupBTB checks whether the taken control transfer at pc has its target
// cached, updating the entry, and reports a hit. A BTB miss on a taken
// transfer costs a fetch redirect in the timing model.
func (p *Predictor) LookupBTB(pc, target int64) bool {
	i := int(uint64(pc) & p.btbMask)
	hit := p.btbPC[i] == pc && p.btb[i] == target
	p.btbPC[i] = pc
	p.btb[i] = target
	if !hit {
		p.BTBMisses++
	}
	return hit
}

// PushRAS records a call's return address.
func (p *Predictor) PushRAS(ret int64) {
	p.ras[p.rasTop&(len(p.ras)-1)] = ret
	p.rasTop++
}

// PopRAS predicts a return target and reports whether it matched actual.
func (p *Predictor) PopRAS(actual int64) bool {
	if p.rasTop == 0 {
		p.RASMisses++
		return false
	}
	p.rasTop--
	if p.ras[p.rasTop&(len(p.ras)-1)] != actual {
		p.RASMisses++
		return false
	}
	return true
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
