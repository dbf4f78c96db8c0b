package core

import (
	"fmt"
	"strconv"

	"extra/internal/isps"
	"extra/internal/transform"
)

// Tactics expand into sequences of elementary transformation steps, each
// recorded and validated individually. The paper notes that "the
// simplifications mentioned earlier can require many steps" and that "many
// of the transformations are at too low a level" — tactics are this
// reproduction's answer to the resulting tedium, while keeping the step
// accounting faithful: a tactic is bookkeeping, the steps are real.

// reducingTransforms are the local transformations tried during
// normalization. Every one of them strictly shrinks the description, so the
// fixpoint iteration terminates.
var reducingTransforms = []string{
	"fold.add", "fold.sub", "fold.mul", "fold.div", "fold.compare",
	"fold.not", "fold.logic",
	"simplify.and.true", "simplify.and.false", "simplify.or.false",
	"simplify.or.true", "simplify.xor.false", "simplify.not.not",
	"simplify.add.zero", "simplify.sub.zero", "simplify.mul.one",
	"simplify.mul.zero", "simplify.div.one",
	"if.true", "if.false", "exit.false",
}

// Normalize repeatedly applies the reducing local transformations anywhere
// in the description until none applies, recording every application as a
// step. It returns the number of steps taken. Probes are prefiltered by
// node kind (the same moveKindsOf table the auto-search uses), so a fold
// is never cloned-and-tried at a declaration or a block where its
// precondition cannot hold.
func (s *Session) Normalize(side Side) (int, error) {
	// Resolve the transforms and their target kinds once.
	tbl := resolveMoves(reducingTransforms)
	if len(tbl.missing) > 0 {
		_, err := transform.Get(tbl.missing[0])
		return 0, err
	}
	moves, wantKind := tbl.moves, tbl.kinds
	tally := probeTally{}
	defer tally.flush(s.Metrics)
	kindOK := func(mv probeMove, kind string) bool {
		for _, k := range mv.kinds {
			if k == kind {
				return true
			}
		}
		return false
	}
	steps := 0
	for {
		applied := false
		// Collect candidate paths fresh each round: the tree changes.
		d := s.Desc(side)
		type cand struct {
			p    isps.Path
			kind string
		}
		var paths []cand
		isps.Walk(d, func(n isps.Node, p isps.Path) bool {
			if k := nodeKind(n); k != "" && wantKind[k] {
				// Walk reuses its path buffer; retained paths must be copied.
				paths = append(paths, cand{p: append(isps.Path(nil), p...), kind: k})
			}
			return true
		})
		for _, c := range paths {
			n, err := isps.Resolve(d, c.p)
			if err != nil {
				continue // a prior application this round restructured the tree
			}
			for _, mv := range moves {
				if !kindOK(mv, c.kind) {
					continue
				}
				if mv.gate != nil {
					// Gate on the freshly resolved node: an application this
					// round may have rewritten what sits at the path.
					if e, isExpr := n.(isps.Expr); !isExpr || !mv.gate(e) {
						continue
					}
				}
				if _, err := mv.tr.Apply(d, c.p, nil); err != nil {
					tally.note(mv.name, err)
					continue
				}
				if err := s.Apply(side, mv.name, c.p, nil); err != nil {
					return steps, err
				}
				steps++
				applied = true
				d = s.Desc(side)
				// The application rewrote the node at the path; later moves
				// must gate on what is there now. A vanished path ends this
				// candidate: every transform resolves it and would refuse.
				if n, err = isps.Resolve(d, c.p); err != nil {
					break
				}
			}
		}
		if !applied {
			return steps, nil
		}
	}
}

// FixOperand fixes an instruction operand to a constant and cleans up: the
// constant is propagated to every use, the now-dead initializing assignment
// and (when possible) the declaration are removed, and the description is
// re-normalized. This is the paper's flag-simplification sequence for rf,
// rfz and df (section 4.1).
func (s *Session) FixOperand(side Side, operand string, value int) error {
	if err := s.MustApply(side, "constraint.fix", nil, transform.Args{
		"operand": operand, "value": strconv.Itoa(value),
	}); err != nil {
		return err
	}
	return s.propagateAndClean(side, operand)
}

// propagateAndClean propagates a single top-level constant definition of
// operand, removes the dead assignment and declaration, and normalizes.
func (s *Session) propagateAndClean(side Side, operand string) error {
	if err := s.MustApply(side, "global.const.prop", nil, transform.Args{"var": operand}); err != nil {
		return err
	}
	// The defining assignment is now dead: find it (top level).
	d := s.Desc(side)
	at, ok := findTopLevelAssign(d, operand)
	if !ok {
		return fmt.Errorf("core: lost the defining assignment of %s", operand)
	}
	if err := s.MustApply(side, "global.dead.assign", at, nil); err != nil {
		return err
	}
	if _, err := s.Normalize(side); err != nil {
		return err
	}
	// The declaration may now be unused.
	if s.Desc(side).Reg(operand) != nil {
		if err := s.Apply(side, "global.dead.decl", nil, transform.Args{"var": operand}); err == nil {
			// removed; ignore failure (still used somewhere)
			_ = err
		}
	}
	return nil
}

// findTopLevelAssign locates the first top-level assignment to v in the
// routine body and returns its absolute path.
func findTopLevelAssign(d *isps.Description, v string) (isps.Path, bool) {
	for si, sec := range d.Sections {
		for di, dec := range sec.Decls {
			r, ok := dec.(*isps.RoutineDecl)
			if !ok {
				continue
			}
			for i, st := range r.Body.Stmts {
				if a, ok := st.(*isps.AssignStmt); ok {
					if id, ok := a.LHS.(*isps.Ident); ok && id.Name == v {
						return isps.Path{si, di, 0, i}, true
					}
				}
			}
		}
	}
	return nil, false
}

// InlineCalls inlines every function call in the description (innermost
// statements first, leftmost call first) and removes the then-unused
// functions.
func (s *Session) InlineCalls(side Side) error {
	for n := 0; ; n++ {
		if n > 100 {
			return fmt.Errorf("core: runaway inlining")
		}
		d := s.Desc(side)
		// Find the first statement (not compound) containing a call.
		at, ok := findCallStmt(d)
		if !ok {
			break
		}
		temp := ""
		for k := 0; ; k++ {
			cand := fmt.Sprintf("t%d", k)
			if isps.FreshName(d, cand) == cand {
				temp = cand
				break
			}
		}
		if err := s.MustApply(side, "routine.inline", at, transform.Args{"temp": temp}); err != nil {
			return err
		}
	}
	// Remove functions that are no longer called.
	for {
		d := s.Desc(side)
		removed := false
		for _, f := range d.Funcs() {
			if err := s.Apply(side, "routine.remove", nil, transform.Args{"func": f.Name}); err == nil {
				removed = true
				break
			}
		}
		if !removed {
			break
		}
	}
	return nil
}

// findCallStmt returns the path of the innermost simple statement (or if
// condition) containing a call.
func findCallStmt(d *isps.Description) (isps.Path, bool) {
	var found isps.Path
	ok := false
	isps.Walk(d, func(n isps.Node, p isps.Path) bool {
		if ok {
			return false
		}
		switch st := n.(type) {
		case *isps.AssignStmt, *isps.ExitWhenStmt, *isps.OutputStmt, *isps.AssertStmt:
			if hasCall(st.(isps.Node)) {
				found = append(isps.Path(nil), p...)
				ok = true
				return false
			}
		case *isps.IfStmt:
			if hasCall(st.Cond) {
				found = append(isps.Path(nil), p...)
				ok = true
				return false
			}
		case *isps.FuncDecl:
			return false // calls cannot nest; skip function bodies
		}
		return true
	})
	return found, ok
}

func hasCall(n isps.Node) bool {
	found := false
	isps.Walk(n, func(m isps.Node, _ isps.Path) bool {
		if _, isCall := m.(*isps.Call); isCall {
			found = true
		}
		return !found
	})
	return found
}
