package lint_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"repro/internal/lint"
)

// The matcher keys on package-path suffixes (internal/prog, internal/obs),
// so the tests typecheck stand-in packages under test/internal/... rather
// than importing the real IR.
const progStub = `package prog
type Ins struct{ Op int }
type Block struct {
	Insts []Ins
	Next  *Block
}
`

const obsStub = `package obs
type Observer interface {
	Count(name string, n int64)
}
`

const coreStub = `package core
import "test/internal/prog"
type ProfileArtifact struct {
	Name   string
	Phases []int
}
func (a *ProfileArtifact) Hash() (uint64, error)    { return 0, nil }
func (a *ProfileArtifact) EncodeJSON(w int) error   { return nil }
type PackageSet struct{ Program string }
func (s *PackageSet) Encode() ([]byte, uint64, error) { return nil, 0, nil }
func ImageHash(b *prog.Block) uint64                { return 0 }
`

type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m[path]; ok {
		return pkg, nil
	}
	return nil, fmt.Errorf("no stub for import %q", path)
}

// check typechecks src as a package with the given import path (against
// the prog/obs stubs) and runs Analyze over it.
func check(t *testing.T, path, src string) []lint.Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	deps := mapImporter{}
	compile := func(p, s string, info *types.Info) (*types.Package, []*ast.File) {
		f, err := parser.ParseFile(fset, p+"/a.go", s, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", p, err)
		}
		conf := types.Config{Importer: deps}
		pkg, err := conf.Check(p, fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatalf("typecheck %s: %v", p, err)
		}
		deps[p] = pkg
		return pkg, []*ast.File{f}
	}
	compile("test/internal/prog", progStub, nil)
	compile("test/internal/obs", obsStub, nil)
	compile("test/internal/core", coreStub, nil)

	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	_, files := compile(path, src, info)
	return lint.Analyze(fset, files, info, path)
}

func rules(diags []lint.Diagnostic) []string {
	var rs []string
	for _, d := range diags {
		rs = append(rs, d.Rule)
	}
	return rs
}

func TestInstsMutationFlagged(t *testing.T) {
	src := `package client
import "test/internal/prog"
func rewrite(b *prog.Block) {
	b.Insts = nil                                // direct assign
	b.Insts[0] = prog.Ins{}                      // element assign
	b.Next.Insts = append(b.Next.Insts, prog.Ins{}) // rebuild through a chain
}
func read(b *prog.Block) int { return len(b.Insts) } // reads are fine
`
	diags := check(t, "test/internal/client", src)
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics (%v), want 3", len(diags), rules(diags))
	}
	for _, d := range diags {
		if d.Rule != "lint/insts-mutation" {
			t.Errorf("rule = %q, want lint/insts-mutation", d.Rule)
		}
	}
}

func TestInstsMutationAllowedInOwners(t *testing.T) {
	src := `package opt
import "test/internal/prog"
func Rewrite(b *prog.Block) { b.Insts = nil }
`
	for _, owner := range []string{"test/internal/prog2/internal/opt", "test/internal/opt", "test/internal/pack"} {
		if diags := check(t, owner, src); len(diags) != 0 {
			t.Errorf("%s: got %v, want none", owner, rules(diags))
		}
	}
}

func TestInstsMutationIgnoresOtherFields(t *testing.T) {
	src := `package client
import "test/internal/prog"
type fake struct{ Insts []int }
func ok(b *prog.Block, f *fake) {
	b.Next = nil   // other Block fields are fair game
	f.Insts = nil  // Insts on a non-Block type
}
`
	if diags := check(t, "test/internal/client", src); len(diags) != 0 {
		t.Errorf("got %v, want none", rules(diags))
	}
}

func TestDroppedObserverFlagged(t *testing.T) {
	src := `package client
import "test/internal/obs"
func drop(o obs.Observer) {}                        // flagged
func forward(o obs.Observer) { o.Count("x", 1) }    // used directly
func relay(o obs.Observer) { forward(o) }           // passed along
func blank(_ obs.Observer) {}                       // explicit drop
func shadow(o obs.Observer) {                       // only a shadow is used
	o2 := func(o obs.Observer) { o.Count("y", 1) }
	_ = o2
}
`
	diags := check(t, "test/internal/client", src)
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics (%v), want 2 (drop, shadow)", len(diags), rules(diags))
	}
	for _, d := range diags {
		if d.Rule != "lint/dropped-observer" {
			t.Errorf("rule = %q, want lint/dropped-observer", d.Rule)
		}
	}
}

func TestMutateAfterHashFlagged(t *testing.T) {
	src := `package client
import "test/internal/core"
func build(a *core.ProfileArtifact) uint64 {
	a.Phases = append(a.Phases, 1) // before the hash: fine
	h, _ := a.Hash()
	a.Name = "x"    // flagged: field write after Hash
	a.Phases[0] = 2 // flagged: element write after Hash
	return h
}
func encode(a *core.ProfileArtifact) {
	_ = a.EncodeJSON(0)
	a.Name = "y" // flagged: serialized bytes no longer match
}
func encodeOnce(s *core.PackageSet) []byte {
	data, _, _ := s.Encode()
	s.Program = "z" // flagged: the bytes and the hash Encode returned are stale
	return data
}
`
	diags := check(t, "test/internal/client", src)
	if len(diags) != 4 {
		t.Fatalf("got %d diagnostics (%v), want 4", len(diags), rules(diags))
	}
	for _, d := range diags {
		if d.Rule != "lint/mutate-after-hash" {
			t.Errorf("rule = %q, want lint/mutate-after-hash", d.Rule)
		}
	}
}

func TestMutateAfterHashFreeFunction(t *testing.T) {
	src := `package client
import (
	"test/internal/core"
	"test/internal/prog"
)
func image(b *prog.Block) {
	_ = core.ImageHash(b)
	b.Next = nil // flagged: the image hash no longer describes b
}
`
	diags := check(t, "test/internal/client", src)
	if len(diags) != 1 || diags[0].Rule != "lint/mutate-after-hash" {
		t.Fatalf("got %v, want one lint/mutate-after-hash", rules(diags))
	}
}

func TestMutateAfterHashAllowed(t *testing.T) {
	src := `package client
import "test/internal/core"
func rebind(a *core.ProfileArtifact) {
	_, _ = a.Hash()
	a = &core.ProfileArtifact{} // rebinding leaves the hashed value intact
	_ = a
}
func hashLast(a *core.ProfileArtifact) uint64 {
	a.Name = "x"
	h, _ := a.Hash()
	return h
}
func otherVar(a, b *core.ProfileArtifact) {
	_, _ = a.Hash()
	b.Name = "y" // a different value entirely
}
type plain struct{ Name string }
func (p *plain) Hash() int { return 0 }
func nonArtifact(p *plain) {
	_ = p.Hash()
	p.Name = "z" // not a hashed-package type
}
`
	if diags := check(t, "test/internal/client", src); len(diags) != 0 {
		t.Errorf("got %v, want none", rules(diags))
	}
}
