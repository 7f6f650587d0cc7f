// Package lint implements the repository's custom static checks, run over
// every package by cmd/vplint (a go vet -vettool). Two rules:
//
//	lint/insts-mutation — prog.Block.Insts is assigned, element-assigned or
//	    rebuilt outside internal/prog, internal/opt and internal/pack. The
//	    instruction list is owned by the IR and its transformation passes;
//	    everyone else must treat it as read-only or the verifier's
//	    certificates (opt.PassRecord) go stale silently.
//
//	lint/dropped-observer — a function takes a non-blank obs.Observer
//	    parameter and never uses it. An accepted-then-ignored observer
//	    silently truncates the trace for every caller upstream; either
//	    forward it or make the parameter blank to document the drop.
//
//	lint/mutate-after-hash — a field of an artifact (internal/core) or IR
//	    value (prog.Func, prog.Block) is assigned after the same variable's
//	    content hash was taken with Hash(), EncodeJSON() or Encode() in
//	    the same function. The hash no longer describes the value: a store
//	    keyed by it serves stale bytes, and an equivalence certificate
//	    attached to it attests to code that no longer exists. Take the hash
//	    last, or re-take it after the mutation.
//
// The analysis is purely syntactic + type-based over one package at a
// time, so it slots into the vet unitchecker protocol without needing
// facts from dependencies.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Diagnostic is one lint finding.
type Diagnostic struct {
	Pos  token.Pos
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s", d.Rule, d.Msg)
}

// instsOwners are the package-path suffixes allowed to mutate
// prog.Block.Insts: the IR itself and the two transformation layers.
var instsOwners = []string{"internal/prog", "internal/opt", "internal/pack"}

// Analyze runs both rules over one typechecked package and returns the
// findings. pkgPath is the package's import path (used to exempt the
// Insts owners); info must have Uses, Defs, Types and Selections filled.
func Analyze(fset *token.FileSet, files []*ast.File, info *types.Info, pkgPath string) []Diagnostic {
	var diags []Diagnostic
	mayMutate := false
	for _, own := range instsOwners {
		if strings.HasSuffix(pkgPath, own) {
			mayMutate = true
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if mayMutate {
					return true
				}
				for _, lhs := range n.Lhs {
					if sel, ok := instsTarget(lhs, info); ok {
						diags = append(diags, Diagnostic{
							Pos:  sel.Sel.Pos(),
							Rule: "lint/insts-mutation",
							Msg:  "prog.Block.Insts mutated outside internal/prog, internal/opt and internal/pack",
						})
					}
				}
			case *ast.FuncDecl:
				diags = append(diags, droppedObservers(n, info)...)
				diags = append(diags, mutatedAfterHash(n, info)...)
			}
			return true
		})
	}
	return diags
}

// hashedPkgs are the package-path suffixes whose named types carry
// content hashes: the IR (hashed into ProgramHash/ImageHash) and the
// artifact layer (Hash()/EncodeJSON()/Encode() feed the store keys and
// the equivalence certificates).
var hashedPkgs = []string{"internal/prog", "internal/core"}

// isHashed reports whether t (or *t) is a named type from one of the
// hash-carrying packages, matching by path suffix so tests can use stub
// packages.
func isHashed(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	for _, pkg := range hashedPkgs {
		if strings.HasSuffix(obj.Pkg().Path(), pkg) {
			return true
		}
	}
	return false
}

// baseVar unwraps an expression through index, slice, paren and selector
// steps to the variable it reads or writes through, returning nil when
// the base is not a plain identifier. For `pa.Phases[i].X` it returns pa.
func baseVar(e ast.Expr, info *types.Info) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.Ident:
			v, _ := info.Uses[x].(*types.Var)
			return v
		default:
			return nil
		}
	}
}

// mutatedAfterHash flags field writes through a hashed-type variable at a
// position after the same variable's Hash(), EncodeJSON() or Encode()
// call in fn.
// The ordering is positional — good enough for straight-line build code,
// where this bug class lives; a loop that hashes then mutates on the next
// iteration is equally wrong and also caught.
func mutatedAfterHash(fn *ast.FuncDecl, info *types.Info) []Diagnostic {
	if fn.Body == nil {
		return nil
	}
	hashed := map[*types.Var]ast.Node{} // var -> earliest hash-taking call
	mark := func(v *types.Var, call *ast.CallExpr) {
		if v == nil || !isHashed(v.Type()) {
			return
		}
		if prev, ok := hashed[v]; !ok || call.Pos() < prev.Pos() {
			hashed[v] = call
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := ""
		switch f := call.Fun.(type) {
		case *ast.SelectorExpr:
			name = f.Sel.Name
			if name == "Hash" || name == "EncodeJSON" || name == "Encode" {
				// Method form: pa.Hash(), set.EncodeJSON(w), set.Encode().
				mark(baseVar(f.X, info), call)
			}
		case *ast.Ident:
			name = f.Name
		}
		// Free-function form: ImageHash(img) and friends take the value
		// to digest as an argument.
		if name == "Hash" || name == "ImageHash" || name == "EncodeJSON" || name == "Encode" {
			for _, arg := range call.Args {
				mark(baseVar(arg, info), call)
			}
		}
		return true
	})
	if len(hashed) == 0 {
		return nil
	}
	var diags []Diagnostic
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			// Rebinding the variable itself (`pa = ...`) is fine — the
			// old hashed value is unchanged. Only writes through it count.
			if _, isIdent := lhs.(*ast.Ident); isIdent {
				continue
			}
			v := baseVar(lhs, info)
			if v == nil {
				continue
			}
			if call, ok := hashed[v]; ok && lhs.Pos() > call.Pos() {
				diags = append(diags, Diagnostic{
					Pos:  lhs.Pos(),
					Rule: "lint/mutate-after-hash",
					Msg: fmt.Sprintf("%q is mutated after its content hash was taken in %s; the hash and any certificate keyed by it are now stale",
						v.Name(), fn.Name.Name),
				})
			}
		}
		return true
	})
	return diags
}

// instsTarget reports whether lhs writes through a selector
// <block>.Insts where <block> has the prog.Block named type. Element
// and slice writes (b.Insts[i] = ..., b.Insts[i:j]) unwrap to the same
// selector.
func instsTarget(lhs ast.Expr, info *types.Info) (*ast.SelectorExpr, bool) {
	for {
		switch e := lhs.(type) {
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.SliceExpr:
			lhs = e.X
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			if e.Sel.Name != "Insts" {
				return nil, false
			}
			if isProgBlock(info.TypeOf(e.X)) {
				return e, true
			}
			return nil, false
		default:
			return nil, false
		}
	}
}

// isProgBlock reports whether t is prog.Block or *prog.Block, matching
// the defining package by path suffix so tests can use stub packages.
func isProgBlock(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Block" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/prog")
}

// isObserver reports whether t is the obs.Observer interface.
func isObserver(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Observer" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/obs")
}

// droppedObservers flags fn's non-blank obs.Observer parameters that the
// body never reads.
func droppedObservers(fn *ast.FuncDecl, info *types.Info) []Diagnostic {
	if fn.Body == nil || fn.Type.Params == nil {
		return nil
	}
	var params []*types.Var
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj, ok := info.Defs[name].(*types.Var)
			if !ok || !isObserver(obj.Type()) {
				continue
			}
			params = append(params, obj)
		}
	}
	if len(params) == 0 {
		return nil
	}
	used := make(map[*types.Var]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := info.Uses[id].(*types.Var); ok {
			used[v] = true
		}
		return true
	})
	var diags []Diagnostic
	for _, p := range params {
		if !used[p] {
			diags = append(diags, Diagnostic{
				Pos:  p.Pos(),
				Rule: "lint/dropped-observer",
				Msg: fmt.Sprintf("observer parameter %q of %s is never used; forward it or make it blank",
					p.Name(), fn.Name.Name),
			})
		}
	}
	return diags
}
