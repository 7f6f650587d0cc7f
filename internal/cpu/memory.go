package cpu

import (
	"fmt"

	"repro/internal/prog"
)

// Memory is a sparse, word-granular memory. Addresses are byte addresses
// but all accesses are 8-byte aligned words, matching the VPIR load/store
// instructions.
//
// Layout-aware fast paths back the two regions every program hammers:
// the data segment (growing up from prog.DataBase) and the stack (growing
// down from prog.StackBase) live in dense slices indexed by a subtraction,
// so the common case never touches the page map. Everything else falls
// back to 64 KB pages with a one-entry cache of the last page hit.
type Memory struct {
	data  []int64 // words at [DataBase, DataBase+len(data)*8)
	stack []int64 // words at [StackBase-len(stack)*8, StackBase); stack[i] is word StackBase/8-1-i

	pages     map[int64][]int64
	lastPage  int64   // key of lastSlice in pages, or -1
	lastSlice []int64 // one-entry page cache

	// noFast forces every access through the paged path; the equivalence
	// test uses it to prove the dense fast paths retire identical state.
	noFast bool
}

// pageWords is the number of 64-bit words per page (64 KB pages).
const (
	pageWords = 8192
	pageShift = 13 // log2(pageWords)
	pageMask  = pageWords - 1

	dataBaseWord  = prog.DataBase >> 3
	stackBaseWord = prog.StackBase >> 3

	// maxDenseDataWords caps the dense data segment at 32 MB; stores past
	// the cap (sparse far-heap traffic) fall back to pages.
	maxDenseDataWords = 1 << 22
	// maxDenseStackWords caps the dense stack at 8 MB of depth.
	maxDenseStackWords = 1 << 20
)

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[int64][]int64), lastPage: -1}
}

// NewMemorySized returns an empty memory with the dense data segment
// pre-materialized for dataWords words, so a program's data initialization
// and steady-state accesses never grow mid-run.
func NewMemorySized(dataWords int) *Memory {
	m := NewMemory()
	if dataWords > 0 {
		if dataWords > maxDenseDataWords {
			dataWords = maxDenseDataWords
		}
		m.data = make([]int64, dataWords)
	}
	return m
}

func checkAddr(addr int64) error {
	if addr&7 != 0 {
		return fmt.Errorf("cpu: unaligned access at %#x", addr)
	}
	return fmt.Errorf("cpu: negative address %#x", addr)
}

// growData extends the dense data segment to cover word index d (relative
// to DataBase), growing geometrically to amortize.
func (m *Memory) growData(d int64) {
	n := int64(cap(m.data))
	if n < 1024 {
		n = 1024
	}
	for n <= d {
		n *= 2
	}
	if n > maxDenseDataWords {
		n = maxDenseDataWords
	}
	nd := make([]int64, n)
	copy(nd, m.data)
	m.data = nd
}

// growStack extends the dense stack to depth d words below StackBase.
func (m *Memory) growStack(d int64) {
	n := int64(cap(m.stack))
	if n < 1024 {
		n = 1024
	}
	for n < d {
		n *= 2
	}
	if n > maxDenseStackWords {
		n = maxDenseStackWords
	}
	ns := make([]int64, n)
	copy(ns, m.stack)
	m.stack = ns
}

// Load reads the word at addr.
func (m *Memory) Load(addr int64) (int64, error) {
	if addr&7 != 0 || addr < 0 {
		return 0, checkAddr(addr)
	}
	w := addr >> 3
	if !m.noFast {
		if d := w - dataBaseWord; uint64(d) < uint64(len(m.data)) {
			return m.data[d], nil
		}
		if d := stackBaseWord - 1 - w; uint64(d) < uint64(len(m.stack)) {
			return m.stack[d], nil
		}
		// Unwritten words in the dense windows read as zero without
		// materializing anything.
		if w >= dataBaseWord && w < dataBaseWord+maxDenseDataWords {
			return 0, nil
		}
		if w < stackBaseWord && w >= stackBaseWord-maxDenseStackWords {
			return 0, nil
		}
	}
	page := w >> pageShift
	if page == m.lastPage {
		return m.lastSlice[w&pageMask], nil
	}
	p, ok := m.pages[page]
	if !ok {
		return 0, nil
	}
	m.lastPage = page
	m.lastSlice = p
	return p[w&pageMask], nil
}

// Store writes the word at addr.
func (m *Memory) Store(addr, val int64) error {
	if addr&7 != 0 || addr < 0 {
		return checkAddr(addr)
	}
	w := addr >> 3
	if !m.noFast {
		if d := w - dataBaseWord; uint64(d) < uint64(len(m.data)) {
			m.data[d] = val
			return nil
		}
		if d := stackBaseWord - 1 - w; uint64(d) < uint64(len(m.stack)) {
			m.stack[d] = val
			return nil
		}
		if d := w - dataBaseWord; d >= 0 && d < maxDenseDataWords {
			m.growData(d)
			m.data[d] = val
			return nil
		}
		if d := stackBaseWord - w; d > 0 && d <= maxDenseStackWords {
			m.growStack(d)
			m.stack[d-1] = val
			return nil
		}
	}
	page := w >> pageShift
	var p []int64
	if page == m.lastPage {
		p = m.lastSlice
	} else if p = m.pages[page]; p == nil {
		p = make([]int64, pageWords)
		m.pages[page] = p
	}
	m.lastPage = page
	m.lastSlice = p
	p[w&pageMask] = val
	return nil
}

// Snapshot copies the contents of the byte range [start, start+words*8) as
// words. Unwritten locations read as zero.
func (m *Memory) Snapshot(start int64, words int) ([]int64, error) {
	out := make([]int64, words)
	for i := range out {
		v, err := m.Load(start + int64(i)*8)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
