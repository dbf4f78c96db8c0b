package dataflow_test

import (
	"sort"
	"testing"

	"extra/internal/dataflow"
	"extra/internal/isps"
	"extra/internal/langops"
	"extra/internal/machines"
	"extra/internal/proofs"
)

// mapEffects is the map-based effect walker NodeEffects replaced, kept here
// verbatim in behaviour as the oracle for the slice-set accumulator: three
// map sets per node, merged bottom-up, the branch must-defs intersected.
type mapEffects struct {
	mayUse, mayDef, mustDef map[string]bool
}

func newMapEffects() mapEffects {
	return mapEffects{mayUse: map[string]bool{}, mayDef: map[string]bool{}, mustDef: map[string]bool{}}
}

func (e mapEffects) union(o mapEffects) mapEffects {
	for k := range o.mayUse {
		e.mayUse[k] = true
	}
	for k := range o.mayDef {
		e.mayDef[k] = true
	}
	for k := range o.mustDef {
		e.mustDef[k] = true
	}
	return e
}

func mapBranch(a, b mapEffects) mapEffects {
	out := newMapEffects()
	for k := range a.mayUse {
		out.mayUse[k] = true
	}
	for k := range b.mayUse {
		out.mayUse[k] = true
	}
	for k := range a.mayDef {
		out.mayDef[k] = true
	}
	for k := range b.mayDef {
		out.mayDef[k] = true
	}
	for k := range a.mustDef {
		if b.mustDef[k] {
			out.mustDef[k] = true
		}
	}
	return out
}

func mapNodeEffects(n isps.Node, funcs map[string]*isps.FuncDecl) mapEffects {
	switch x := n.(type) {
	case *isps.Ident:
		e := newMapEffects()
		e.mayUse[x.Name] = true
		return e
	case *isps.Mem:
		e := mapNodeEffects(x.Addr, funcs)
		e.mayUse[dataflow.MemName] = true
		return e
	case *isps.Call:
		e := newMapEffects()
		if f, ok := funcs[x.Name]; ok {
			e = e.union(mapNodeEffects(f.Body, funcs))
		}
		e.mayUse[x.Name] = true
		return e
	case *isps.Un:
		return mapNodeEffects(x.X, funcs)
	case *isps.Bin:
		return mapNodeEffects(x.X, funcs).union(mapNodeEffects(x.Y, funcs))
	case *isps.AssignStmt:
		e := mapNodeEffects(x.RHS, funcs)
		switch lhs := x.LHS.(type) {
		case *isps.Ident:
			e.mayDef[lhs.Name] = true
			e.mustDef[lhs.Name] = true
		case *isps.Mem:
			e = e.union(mapNodeEffects(lhs.Addr, funcs))
			e.mayDef[dataflow.MemName] = true
		}
		return e
	case *isps.IfStmt:
		cond := mapNodeEffects(x.Cond, funcs)
		return cond.union(mapBranch(mapNodeEffects(x.Then, funcs), mapNodeEffects(x.Else, funcs)))
	case *isps.RepeatStmt:
		e := mapNodeEffects(x.Body, funcs)
		e.mustDef = map[string]bool{}
		return e
	case *isps.ExitWhenStmt:
		return mapNodeEffects(x.Cond, funcs)
	case *isps.AssertStmt:
		return mapNodeEffects(x.Cond, funcs)
	case *isps.InputStmt:
		e := newMapEffects()
		for _, name := range x.Names {
			e.mayDef[name] = true
			e.mustDef[name] = true
		}
		e.mayDef[dataflow.IOName] = true
		return e
	case *isps.OutputStmt:
		e := newMapEffects()
		for _, ex := range x.Exprs {
			e = e.union(mapNodeEffects(ex, funcs))
		}
		e.mayDef[dataflow.IOName] = true
		return e
	case *isps.Block:
		e := newMapEffects()
		for _, s := range x.Stmts {
			e = e.union(mapNodeEffects(s, funcs))
		}
		return e
	}
	return newMapEffects()
}

// sameSet reports whether the slice set s holds exactly the names of m,
// each once.
func sameSet(s dataflow.Set, m map[string]bool) bool {
	if len(s) != len(m) {
		return false
	}
	for _, k := range s {
		if !m[k] {
			return false
		}
	}
	seen := map[string]bool{}
	for _, k := range s {
		if seen[k] {
			return false
		}
		seen[k] = true
	}
	return true
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// corpus returns every catalog description: the machines' instructions,
// the language operators, and the final operator and instruction forms of
// every Table 2 and extension analysis (which carry the shapes the proof
// steps create: inlined calls, rotated loops, witness flags).
func corpus(t *testing.T) []*isps.Description {
	t.Helper()
	var out []*isps.Description
	for _, e := range machines.All() {
		out = append(out, isps.MustParse(e.Source))
	}
	for _, e := range langops.All() {
		out = append(out, isps.MustParse(e.Source))
	}
	for _, a := range append(proofs.Table2(), proofs.Extensions()...) {
		s, _, err := a.Run()
		if err != nil {
			t.Fatalf("%s/%s: %v", a.Instruction, a.Operator, err)
		}
		out = append(out, s.Op, s.Ins, s.OpVariant, s.Variant)
	}
	return out
}

// TestNodeEffectsMatchesMapWalker: on every statement, block and expression
// node of every catalog description, the slice-set walker computes exactly
// the MayUse, MayDef and MustDef sets of the map-based walker it replaced,
// with no name repeated.
func TestNodeEffectsMatchesMapWalker(t *testing.T) {
	nodes := 0
	for _, d := range corpus(t) {
		funcs := map[string]*isps.FuncDecl{}
		for _, f := range d.Funcs() {
			funcs[f.Name] = f
		}
		isps.Walk(d, func(n isps.Node, p isps.Path) bool {
			switch n.(type) {
			case isps.Stmt, isps.Expr, *isps.Block:
			default:
				return true
			}
			nodes++
			got := dataflow.NodeEffects(n, d)
			want := mapNodeEffects(n, funcs)
			for _, c := range []struct {
				name string
				got  dataflow.Set
				want map[string]bool
			}{
				{"MayUse", got.MayUse, want.mayUse},
				{"MayDef", got.MayDef, want.mayDef},
				{"MustDef", got.MustDef, want.mustDef},
			} {
				if !sameSet(c.got, c.want) {
					t.Errorf("%s %s %T: %s = %v, map walker says %v", d.Name, p, n, c.name, c.got, keys(c.want))
				}
			}
			return true
		})
	}
	if nodes < 1000 {
		t.Fatalf("only %d nodes compared; corpus or walk broken", nodes)
	}
}
