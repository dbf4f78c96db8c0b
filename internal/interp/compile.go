package interp

import (
	"fmt"

	"extra/internal/isps"
)

// program is a description compiled for execution. It is immutable once
// built and shared by every run of descriptions with its digest.
type program struct {
	name string
	// err is returned by every run: the description cannot execute.
	err error
	// names maps a slot to the register it holds; slotOf is its inverse.
	names  []string
	slotOf map[string]int
	body   []stmtFn
}

// function is a compiled niladic function.
type function struct {
	slot int // the register holding the function's value
	body []stmtFn
	// tooDeep and escaped are the call's failures, built once.
	tooDeep, escaped error
}

// stmtFn executes one statement; the step is charged by machine.exec.
type stmtFn func(m *machine) ctl

// exprFn evaluates an expression. On failure it sets m.err and returns an
// arbitrary value; only expressions compiled as fallible can fail.
type exprFn func(m *machine) uint64

type compiler struct {
	p      *program
	widths map[string]int
	funcs  map[string]*function
}

// compile translates d into a program. It never fails: whatever would
// make a run fail is compiled into code that fails when it executes, at
// the same step and with the same error the description's semantics give.
func compile(d *isps.Description) *program {
	c := &compiler{
		p:      &program{name: d.Name, slotOf: map[string]int{}},
		widths: map[string]int{},
		funcs:  map[string]*function{},
	}
	for _, r := range d.Regs() {
		c.widths[r.Name] = r.Width
		c.slot(r.Name)
	}
	// A later declaration of a name wins, for widths and bodies alike.
	decls := map[string]*isps.FuncDecl{}
	for _, f := range d.Funcs() {
		c.widths[f.Name] = f.Width
		decls[f.Name] = f
		c.funcs[f.Name] = &function{
			slot:    c.slot(f.Name),
			tooDeep: fmt.Errorf("%w at %s()", ErrCallDepth, f.Name),
			escaped: &runError{msg: fmt.Sprintf("interp: exit_when escaped function %s()", f.Name), class: ErrExit},
		}
	}
	// Bodies are compiled after every function exists, so calls (even
	// recursive ones, which only the depth bound stops) bind directly.
	for name, f := range c.funcs {
		f.body = c.block(decls[name].Body)
	}
	r := d.Routine()
	if r == nil {
		c.p.err = classErr(ErrMalformed, "interp: description %s has no routine", d.Name)
		return c.p
	}
	c.p.body = c.block(r.Body)
	return c.p
}

// slot returns the register slot of name, allocating one on first use.
// Undeclared names get a slot too: they read as their initial state value
// and assignments to them are unmasked.
func (c *compiler) slot(name string) int {
	if s, ok := c.p.slotOf[name]; ok {
		return s
	}
	s := len(c.p.names)
	c.p.names = append(c.p.names, name)
	c.p.slotOf[name] = s
	return s
}

// mask is the width mask of name's register.
func (c *compiler) mask(name string) uint64 {
	w := c.widths[name]
	if w <= 0 || w >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(w) - 1
}

func (c *compiler) block(b *isps.Block) []stmtFn {
	if b == nil {
		return nil
	}
	out := make([]stmtFn, len(b.Stmts))
	for i, s := range b.Stmts {
		out[i] = c.stmt(s)
	}
	return out
}

// failed reports whether the run has failed. Code compiled from
// infallible expressions never needs to ask.
func failed(m *machine) bool { return m.err != nil }

func (c *compiler) stmt(s isps.Stmt) stmtFn {
	switch st := s.(type) {
	case *isps.AssignStmt:
		return c.assign(st)
	case *isps.IfStmt:
		cond, fallible := c.expr(st.Cond)
		then, els := c.block(st.Then), c.block(st.Else)
		return func(m *machine) ctl {
			v := cond(m)
			if fallible && failed(m) {
				return ctlErr
			}
			if v != 0 {
				return m.exec(then)
			}
			return m.exec(els)
		}
	case *isps.RepeatStmt:
		body := c.block(st.Body)
		if len(body) == 0 {
			// Nothing can exit an empty loop, and its iterations execute
			// no statements, so it would spin forever without charging a
			// step: it exhausts the budget at once instead.
			return func(m *machine) ctl {
				m.err = ErrStepLimit
				return ctlErr
			}
		}
		return func(m *machine) ctl {
			for {
				switch m.exec(body) {
				case ctlExit:
					return ctlNext
				case ctlErr:
					return ctlErr
				}
			}
		}
	case *isps.ExitWhenStmt:
		cond, fallible := c.expr(st.Cond)
		return func(m *machine) ctl {
			v := cond(m)
			if fallible && failed(m) {
				return ctlErr
			}
			if v != 0 {
				return ctlExit
			}
			return ctlNext
		}
	case *isps.AssertStmt:
		cond, fallible := c.expr(st.Cond)
		text := isps.ExprString(st.Cond)
		return func(m *machine) ctl {
			v := cond(m)
			if fallible && failed(m) {
				return ctlErr
			}
			if v == 0 {
				m.err = &AssertError{Cond: text}
				return ctlErr
			}
			return ctlNext
		}
	case *isps.InputStmt:
		names := append([]string(nil), st.Names...)
		slots := make([]int, len(names))
		masks := make([]uint64, len(names))
		for i, n := range names {
			slots[i], masks[i] = c.slot(n), c.mask(n)
		}
		return func(m *machine) ctl {
			for i, s := range slots {
				if m.nextIn >= len(m.inputs) {
					m.err = classErr(ErrInputExhausted, "interp: %s: input(%s) exhausted the %d supplied operand values",
						m.prog.name, names[i], len(m.inputs))
					return ctlErr
				}
				m.regs[s] = m.inputs[m.nextIn] & masks[i]
				m.dirty[s] = true
				m.nextIn++
			}
			return ctlNext
		}
	case *isps.OutputStmt:
		exprs := make([]exprFn, len(st.Exprs))
		fallible := false
		for i, e := range st.Exprs {
			var f bool
			exprs[i], f = c.expr(e)
			fallible = fallible || f
		}
		return func(m *machine) ctl {
			for _, e := range exprs {
				v := e(m)
				if fallible && failed(m) {
					return ctlErr
				}
				m.outputs = append(m.outputs, v)
			}
			return ctlNext
		}
	}
	err := classErr(ErrMalformed, "interp: unknown statement type %T", s)
	return func(m *machine) ctl {
		m.err = err
		return ctlErr
	}
}

func (c *compiler) assign(st *isps.AssignStmt) stmtFn {
	rhs, rf := c.expr(st.RHS)
	switch lhs := st.LHS.(type) {
	case *isps.Ident:
		s, mk := c.slot(lhs.Name), c.mask(lhs.Name)
		return func(m *machine) ctl {
			v := rhs(m)
			if rf && failed(m) {
				return ctlErr
			}
			m.regs[s] = v & mk
			m.dirty[s] = true
			return ctlNext
		}
	case *isps.Mem:
		addr, af := c.expr(lhs.Addr)
		return func(m *machine) ctl {
			v := rhs(m)
			if rf && failed(m) {
				return ctlErr
			}
			a := addr(m)
			if af && failed(m) {
				return ctlErr
			}
			m.mem[a] = byte(v)
			return ctlNext
		}
	}
	err := classErr(ErrMalformed, "interp: bad assignment target %T", st.LHS)
	return func(m *machine) ctl {
		rhs(m)
		if !failed(m) {
			m.err = err
		}
		return ctlErr
	}
}

// expr compiles an expression and reports whether it is fallible: whether
// evaluating it can fail (it contains a call, a division or something
// unknown). Infallible code never checks m.err.
func (c *compiler) expr(e isps.Expr) (exprFn, bool) {
	switch x := e.(type) {
	case *isps.Num:
		v := uint64(x.Val)
		return func(*machine) uint64 { return v }, false
	case *isps.Ident:
		s := c.slot(x.Name)
		return func(m *machine) uint64 { return m.regs[s] }, false
	case *isps.Mem:
		addr, fallible := c.expr(x.Addr)
		return func(m *machine) uint64 { return m.load(addr(m)) }, fallible
	case *isps.Call:
		f := c.funcs[x.Name]
		if f == nil {
			err := classErr(ErrMalformed, "interp: call of undeclared function %s()", x.Name)
			return func(m *machine) uint64 {
				m.err = err
				return 0
			}, true
		}
		return func(m *machine) uint64 { return m.call(f) }, true
	case *isps.Un:
		return c.unary(x)
	case *isps.Bin:
		return c.binary(x)
	}
	err := classErr(ErrMalformed, "interp: unknown expression type %T", e)
	return func(m *machine) uint64 {
		m.err = err
		return 0
	}, true
}

func truth(v uint64) uint64 {
	if v != 0 {
		return 1
	}
	return 0
}

func boolVal(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (c *compiler) unary(x *isps.Un) (exprFn, bool) {
	a, fallible := c.expr(x.X)
	switch x.Op {
	case isps.OpNot:
		return func(m *machine) uint64 { return 1 - truth(a(m)) }, fallible
	case isps.OpNeg:
		return func(m *machine) uint64 { return -a(m) }, fallible
	}
	err := classErr(ErrMalformed, "interp: unknown unary operator %s", x.Op)
	return func(m *machine) uint64 {
		a(m)
		if !failed(m) {
			m.err = err
		}
		return 0
	}, true
}

func (c *compiler) binary(x *isps.Bin) (exprFn, bool) {
	a, af := c.expr(x.X)
	b, bf := c.expr(x.Y)
	op := x.Op
	if !af && !bf && op != isps.OpDiv && knownBinary(op) {
		return func(m *machine) uint64 { return arith(op, a(m), b(m)) }, false
	}
	// The general form: the left operand's failure stops the right one
	// from running (it may call a function with side effects), and a
	// division by zero or unknown operator fails after both operands ran.
	var (
		divZero = classErr(ErrDivideByZero, "interp: division by zero in %s", c.p.name)
		unknown = classErr(ErrMalformed, "interp: unknown binary operator %s", x.Op)
	)
	known := knownBinary(op)
	return func(m *machine) uint64 {
		u := a(m)
		if failed(m) {
			return 0
		}
		v := b(m)
		if failed(m) {
			return 0
		}
		switch {
		case !known:
			m.err = unknown
			return 0
		case op == isps.OpDiv && v == 0:
			m.err = divZero
			return 0
		}
		return arith(op, u, v)
	}, true
}

func knownBinary(op isps.Op) bool {
	switch op {
	case isps.OpAdd, isps.OpSub, isps.OpMul, isps.OpDiv, isps.OpEq, isps.OpNe, isps.OpLt,
		isps.OpGt, isps.OpLe, isps.OpGe, isps.OpAnd, isps.OpOr, isps.OpXor:
		return true
	}
	return false
}

// arith applies a known binary operator; a division's divisor is nonzero.
func arith(op isps.Op, u, v uint64) uint64 {
	switch op {
	case isps.OpAdd:
		return u + v
	case isps.OpSub:
		return u - v
	case isps.OpMul:
		return u * v
	case isps.OpDiv:
		return u / v
	case isps.OpEq:
		return boolVal(u == v)
	case isps.OpNe:
		return boolVal(u != v)
	case isps.OpLt:
		return boolVal(u < v)
	case isps.OpGt:
		return boolVal(u > v)
	case isps.OpLe:
		return boolVal(u <= v)
	case isps.OpGe:
		return boolVal(u >= v)
	case isps.OpAnd:
		return truth(u) & truth(v)
	case isps.OpOr:
		return truth(u) | truth(v)
	}
	return truth(u) ^ truth(v)
}
