// Package dataflow computes the def/use, liveness and loop information that
// the transformation library consults to decide whether a transformation
// can be applied at a point (paper section 5: "the transformations
// themselves utilize various types of data flow information that is used to
// determine whether a transformation is valid at a particular point").
package dataflow

import (
	"sync"

	"extra/internal/isps"
)

// MemName is the pseudo-resource standing for main memory Mb in effect
// sets: any Mb read uses it, any Mb write may-defines it (never
// must-defines it, because a byte store does not kill the rest of memory).
const MemName = "Mb"

// IOName is the pseudo-resource standing for the input/output streams:
// input and output statements both may-define it, so no transformation
// reorders them relative to one another.
const IOName = "·io"

// Set is a set of resource names: registers, operator variables, function
// return slots and the Mb and ·io pseudo-resources. An effect set holds a
// handful of names, so it is a slice in first-seen order, searched
// linearly; building one costs no hashing and no per-node allocation.
type Set []string

// Has reports whether name is in the set.
func (s Set) Has(name string) bool {
	for _, n := range s {
		if n == name {
			return true
		}
	}
	return false
}

// add inserts name and reports whether it was new.
func (s *Set) add(name string) bool {
	if s.Has(name) {
		return false
	}
	*s = append(*s, name)
	return true
}

// Effects summarizes what a node may read and write.
//
// MustDef is the set of names written on every execution path through the
// node; it is the only set safe to use as a liveness kill set. MayUse and
// MayDef over-approximate.
type Effects struct {
	MayUse  Set
	MayDef  Set
	MustDef Set
}

// Conflicts reports a name that keeps the two summarized nodes from being
// reordered: one that either node may write and the other may read or
// write. It returns the first such name among e's may-defs, then among
// o's, and ok false when the two are disjoint.
func (e Effects) Conflicts(o Effects) (name string, ok bool) {
	for _, k := range e.MayDef {
		if o.MayUse.Has(k) || o.MayDef.Has(k) {
			return k, true
		}
	}
	for _, k := range o.MayDef {
		if e.MayUse.Has(k) || e.MayDef.Has(k) {
			return k, true
		}
	}
	return "", false
}

// walker accumulates the effects of one walk. Sets grow in place in one
// accumulator rather than being built per node and merged; a conditional's
// then-branch must-defs wait on the shared stack while the else-branch is
// walked, then the two are intersected in place.
type walker struct {
	d     *isps.Description
	e     Effects
	stack []string
}

// walkers recycles accumulators, so the boolean queries below (Independent,
// MayDefine, WritesMemory) allocate nothing once warm.
var walkers = sync.Pool{New: func() any { return new(walker) }}

// walk returns a pooled accumulator holding n's effects; release it with
// done once its sets are no longer read.
func walk(n isps.Node, d *isps.Description) *walker {
	w := walkers.Get().(*walker)
	w.d = d
	w.node(n)
	return w
}

func (w *walker) done() {
	w.d = nil
	w.e = Effects{MayUse: w.e.MayUse[:0], MayDef: w.e.MayDef[:0], MustDef: w.e.MustDef[:0]}
	w.stack = w.stack[:0]
	walkers.Put(w)
}

func (w *walker) node(n isps.Node) {
	switch x := n.(type) {
	case *isps.Ident:
		w.e.MayUse.add(x.Name)
	case *isps.Mem:
		w.node(x.Addr)
		w.e.MayUse.add(MemName)
	case *isps.Call:
		// Function bodies are resolved only here, when a call is reached.
		if w.d != nil {
			if f := w.d.Func(x.Name); f != nil {
				w.node(f.Body)
			}
		}
		// Reading the call's value reads the function's return slot.
		w.e.MayUse.add(x.Name)
	case *isps.Un:
		w.node(x.X)
	case *isps.Bin:
		w.node(x.X)
		w.node(x.Y)
	case *isps.AssignStmt:
		w.node(x.RHS)
		switch lhs := x.LHS.(type) {
		case *isps.Ident:
			w.e.MayDef.add(lhs.Name)
			w.e.MustDef.add(lhs.Name)
		case *isps.Mem:
			w.node(lhs.Addr)
			w.e.MayDef.add(MemName)
		}
	case *isps.IfStmt:
		// The condition is always evaluated, so its definite call side
		// effects stay definite; the branches' must-defs intersect.
		w.node(x.Cond)
		mark := len(w.e.MustDef)
		w.node(x.Then)
		base := len(w.stack)
		w.stack = append(w.stack, w.e.MustDef[mark:]...)
		w.e.MustDef = w.e.MustDef[:mark]
		w.node(x.Else)
		then := Set(w.stack[base:])
		both := w.e.MustDef[:mark]
		for _, k := range w.e.MustDef[mark:] {
			if then.Has(k) {
				both = append(both, k)
			}
		}
		w.e.MustDef = both
		w.stack = w.stack[:base]
	case *isps.RepeatStmt:
		// A repeat body runs at least once, but an early exit_when can cut
		// it short, so nothing in it is a definite def.
		mark := len(w.e.MustDef)
		w.node(x.Body)
		w.e.MustDef = w.e.MustDef[:mark]
	case *isps.ExitWhenStmt:
		w.node(x.Cond)
	case *isps.AssertStmt:
		w.node(x.Cond)
	case *isps.InputStmt:
		for _, name := range x.Names {
			w.e.MayDef.add(name)
			w.e.MustDef.add(name)
		}
		w.e.MayDef.add(IOName)
	case *isps.OutputStmt:
		for _, ex := range x.Exprs {
			w.node(ex)
		}
		w.e.MayDef.add(IOName)
	case *isps.Block:
		for _, s := range x.Stmts {
			w.node(s)
		}
	}
}

// NodeEffects computes the effect summary of any statement, block or
// expression of d. Function calls contribute the callee's effects plus a
// use of the callee's own name (its return slot); a nil d resolves no
// callee. The three sets share one exactly-sized allocation.
func NodeEffects(n isps.Node, d *isps.Description) Effects {
	w := walk(n, d)
	defer w.done()
	nu, nd := len(w.e.MayUse), len(w.e.MayDef)
	all := make([]string, 0, nu+nd+len(w.e.MustDef))
	all = append(append(append(all, w.e.MayUse...), w.e.MayDef...), w.e.MustDef...)
	return Effects{
		MayUse:  all[:nu:nu],
		MayDef:  all[nu : nu+nd : nu+nd],
		MustDef: all[nu+nd:],
	}
}

// Independent reports whether two statements of d may be reordered:
// neither may write anything the other reads or writes, and neither
// transfers control (exit_when). Memory and the i/o streams are modeled as
// pseudo-resources, so two Mb writes, or an Mb write and an Mb read, are
// never independent.
func Independent(a, b isps.Stmt, d *isps.Description) bool {
	if _, ok := a.(*isps.ExitWhenStmt); ok {
		return false
	}
	if _, ok := b.(*isps.ExitWhenStmt); ok {
		return false
	}
	wa, wb := walk(a, d), walk(b, d)
	_, clash := wa.e.Conflicts(wb.e)
	wa.done()
	wb.done()
	return !clash
}

// UsesName reports whether name occurs as an identifier or call under n,
// or as an input operand.
func UsesName(n isps.Node, name string) bool {
	found := false
	isps.Walk(n, func(m isps.Node, _ isps.Path) bool {
		switch x := m.(type) {
		case *isps.Ident:
			if x.Name == name {
				found = true
			}
		case *isps.Call:
			if x.Name == name {
				found = true
			}
		case *isps.InputStmt:
			for _, nm := range x.Names {
				if nm == name {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// MayDefine reports whether executing n, a node of d, can write name.
func MayDefine(n isps.Node, name string, d *isps.Description) bool {
	w := walk(n, d)
	defer w.done()
	return w.e.MayDef.Has(name)
}

// HasCalls reports whether any function call occurs under n.
func HasCalls(n isps.Node) bool {
	found := false
	isps.Walk(n, func(m isps.Node, _ isps.Path) bool {
		if _, ok := m.(*isps.Call); ok {
			found = true
		}
		return !found
	})
	return found
}

// ReadsMemory reports whether n contains an Mb read (writes do not count).
func ReadsMemory(n isps.Node) bool {
	found := false
	isps.Walk(n, func(m isps.Node, _ isps.Path) bool {
		switch x := m.(type) {
		case *isps.Mem:
			found = true
		case *isps.AssignStmt:
			// The LHS Mem of an assignment is a write; inspect only its
			// address and the RHS.
			if lhs, ok := x.LHS.(*isps.Mem); ok {
				if ReadsMemory(lhs.Addr) || ReadsMemory(x.RHS) {
					found = true
				}
				return false
			}
		}
		return !found
	})
	return found
}

// WritesMemory reports whether n, a node of d, contains an Mb write.
func WritesMemory(n isps.Node, d *isps.Description) bool {
	return MayDefine(n, MemName, d)
}
