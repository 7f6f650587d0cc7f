package equiv

import (
	"cmp"
	"encoding/binary"
	"errors"
	"slices"
	"sync"

	"repro/internal/isa"
	"repro/internal/prog"
)

// Memo shares Prove results between proofs of the same obligation: the
// variants of one suite input often build identical packages, and a
// daemon repack re-proves every package its previous build already
// proved. The key is the exact canonical byte encoding of everything
// Prove reads (see obligationKey), never a hash, so a hit returns exactly
// the result Prove would. Each distinct obligation is proved once under
// a sync.Once; concurrent callers of the same obligation wait for it.
//
// Entries live in two generations. Lookups fill the current one (a hit in
// the retained generation is copied forward); Rotate makes the current
// generation the retained one and Discard drops it, so a caller that
// rotates after each successful build keeps exactly the obligations that
// build used. A Memo that is never rotated keeps everything it proved.
//
// A nil *Memo proves directly. The zero Memo is ready to use.
type Memo struct {
	mu        sync.Mutex
	cur, prev map[string]*memoEntry
	lookups   int64
	misses    int64

	// proved, when set (tests only, see export_test.go), sees every
	// successful lookup's snapshot and certificate.
	proved func(*Snapshot, *Certificate)
}

// memoEntry is one obligation's result. done is set inside once.Do after
// Prove returns, so an entry whose proof panicked stays undone and every
// later caller proves directly.
type memoEntry struct {
	once sync.Once
	done bool
	cert *Certificate
	err  error
}

// Prove returns Prove(snap, cfg), from the memo when an identical
// obligation was proved before. The certificate and error are copies:
// callers may keep or modify them without affecting later hits.
func (m *Memo) Prove(snap *Snapshot, cfg Config) (*Certificate, error) {
	if m == nil {
		return Prove(snap, cfg)
	}
	cfg = cfg.withDefaults()
	var cert *Certificate
	var err error
	if key, ok := obligationKey(snap, cfg); ok {
		e := m.entry(key)
		e.once.Do(func() {
			e.cert, e.err = Prove(snap, cfg)
			e.done = true
		})
		if e.done {
			cert, err = e.result()
		} else {
			cert, err = Prove(snap, cfg)
		}
	} else {
		m.mu.Lock()
		m.lookups++
		m.misses++
		m.mu.Unlock()
		cert, err = Prove(snap, cfg)
	}
	if m.proved != nil && err == nil {
		m.proved(snap, cert)
	}
	return cert, err
}

// entry finds or adds the entry for key in the current generation.
func (m *Memo) entry(key string) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lookups++
	if e := m.cur[key]; e != nil {
		return e
	}
	if m.cur == nil {
		m.cur = make(map[string]*memoEntry)
	}
	e := m.prev[key]
	if e == nil {
		m.misses++
		e = &memoEntry{}
	}
	m.cur[key] = e
	return e
}

// result copies the stored outcome. A refutation's *Error is rebuilt
// around the copied certificate, as Prove builds it around its own.
func (e *memoEntry) result() (*Certificate, error) {
	cert := *e.cert
	var ee *Error
	if e.err == nil || !errors.As(e.err, &ee) {
		return &cert, e.err
	}
	out := &Error{Package: ee.Package, Cert: &cert, Counterexamples: slices.Clone(ee.Counterexamples)}
	for i := range out.Counterexamples {
		out.Counterexamples[i].Path = slices.Clone(out.Counterexamples[i].Path)
	}
	return &cert, out
}

// Rotate keeps the obligations looked up since the last Rotate or
// Discard and drops every other entry.
func (m *Memo) Rotate() {
	m.mu.Lock()
	m.prev, m.cur = m.cur, nil
	m.mu.Unlock()
}

// Discard drops the obligations first looked up since the last Rotate or
// Discard; the retained generation stays.
func (m *Memo) Discard() {
	m.mu.Lock()
	m.cur = nil
	m.mu.Unlock()
}

// TakeCounts returns the memo's traffic since the last call and resets
// it: misses counts the obligations proved (each distinct key once),
// hits every other lookup.
func (m *Memo) TakeCounts() (hits, misses int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	hits, misses = m.lookups-m.misses, m.misses
	m.lookups, m.misses = 0, 0
	return hits, misses
}

// obligationKey encodes everything Prove reads from snap and the live
// function, plus the defaulted config, as one byte string:
//
//   - the package name and phase, the live function's name, and the
//     entries;
//   - every block of the function reachable from its block list, the
//     snapshot or an entry, by a live or a snapshot arc, with its live
//     instructions (BlockTarget included), terminator kind, comparison and
//     operands, taken and next arcs, callee and ExitConsumes;
//   - every snapshot block with its captured contents and live-in set.
//
// Blocks of the function are referenced by ID, blocks of other functions
// by (function name, ID), functions by name. The prover compares blocks
// and functions by pointer, so the encoding is exact only while IDs and
// names are unique; the key is refused (ok == false) when two distinct
// blocks share an ID or two distinct functions a name. Clones keep IDs
// and names, which is what lets one program's successive repacks share
// keys.
func obligationKey(snap *Snapshot, cfg Config) (string, bool) {
	fn := snap.fn
	k := keyEncoder{
		fn:  fn,
		ids: make(map[int]*prog.Block, 2*len(snap.blocks)),
		fns: map[string]*prog.Func{fn.Name: fn},
		ok:  true,
	}
	k.int(int64(cfg.MaxPaths))
	k.str(snap.name)
	k.int(int64(snap.phase))
	k.str(fn.Name)
	k.int(int64(len(snap.entries)))
	for _, b := range snap.entries {
		k.ref(b)
	}

	// The in-function blocks the walker or the replay can reach.
	seen := make(map[*prog.Block]bool, len(fn.Blocks)+len(snap.blocks))
	var live []*prog.Block
	visit := func(b *prog.Block) {
		if b != nil && !seen[b] {
			seen[b] = true
			live = append(live, b)
		}
	}
	add := func(b *prog.Block) {
		if b != nil && b.Fn == fn {
			visit(b)
		}
	}
	// Entries are walked whatever their function; arcs only into fn.
	for _, b := range snap.entries {
		visit(b)
	}
	for _, b := range fn.Blocks {
		add(b)
	}
	snapped := make([]*prog.Block, 0, len(snap.blocks))
	for b := range snap.blocks {
		snapped = append(snapped, b)
		add(b)
	}
	for i := 0; i < len(live); i++ {
		b := live[i]
		add(b.Taken)
		add(b.Next)
		if v, ok := snap.blocks[b]; ok {
			add(v.taken)
			add(v.next)
		}
	}
	byID := func(a, b *prog.Block) int { return cmp.Compare(a.ID, b.ID) }
	slices.SortFunc(live, byID)
	slices.SortFunc(snapped, byID)

	k.int(int64(len(live)))
	for _, b := range live {
		k.ref(b)
		k.view(liveView(b))
	}
	k.int(int64(len(snapped)))
	for _, b := range snapped {
		k.ref(b)
		k.view(snap.blocks[b])
		k.uint(uint64(snap.liveIn[b]))
	}
	return string(k.buf), k.ok
}

// keyEncoder appends an obligation's canonical encoding to buf. ids and
// fns record which block and function each referenced ID and name stood
// for, so a reuse clears ok.
type keyEncoder struct {
	buf []byte
	fn  *prog.Func
	ids map[int]*prog.Block
	fns map[string]*prog.Func
	ok  bool
}

func (k *keyEncoder) int(v int64)   { k.buf = binary.AppendVarint(k.buf, v) }
func (k *keyEncoder) uint(v uint64) { k.buf = binary.AppendUvarint(k.buf, v) }

func (k *keyEncoder) str(s string) {
	k.uint(uint64(len(s)))
	k.buf = append(k.buf, s...)
}

// ref encodes a block reference: nil, a block of the proved function by
// ID, or another function's block by function name and ID.
func (k *keyEncoder) ref(b *prog.Block) {
	if b == nil {
		k.uint(0)
		return
	}
	if prev, dup := k.ids[b.ID]; dup && prev != b {
		k.ok = false
	}
	k.ids[b.ID] = b
	switch {
	case b.Fn == k.fn:
		k.uint(1)
	case b.Fn == nil:
		k.uint(2)
	default:
		k.uint(3)
		k.fnName(b.Fn)
	}
	k.int(int64(b.ID))
}

func (k *keyEncoder) fnName(f *prog.Func) {
	if f == nil {
		k.uint(0)
		return
	}
	if prev, dup := k.fns[f.Name]; dup && prev != f {
		k.ok = false
	}
	k.fns[f.Name] = f
	k.uint(1)
	k.str(f.Name)
}

func (k *keyEncoder) reg(r isa.Reg) { k.buf = append(k.buf, byte(r)) }

// view encodes one block's contents as the walker or the replay sees it.
func (k *keyEncoder) view(v view) {
	k.int(int64(len(v.insts)))
	for i := range v.insts {
		in := &v.insts[i]
		k.buf = append(k.buf, byte(in.Op))
		k.reg(in.Rd)
		k.reg(in.Rs1)
		k.reg(in.Rs2)
		k.int(in.Imm)
		k.int(in.Target)
		k.ref(in.BlockTarget)
	}
	k.buf = append(k.buf, byte(v.kind), byte(v.cmpOp))
	k.reg(v.rs1)
	k.reg(v.rs2)
	k.ref(v.taken)
	k.ref(v.next)
	k.fnName(v.callee)
	k.int(int64(len(v.consumes)))
	for _, r := range v.consumes {
		k.reg(r)
	}
}
