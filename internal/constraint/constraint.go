// Package constraint represents the conditions EXTRA discovers during an
// analysis, under which an exotic instruction implements a language
// operator (paper section 3). The code generator must satisfy or verify
// them before emitting the instruction (paper section 6).
//
// The paper's EXTRA handles three simple constraint forms — a fixed operand
// value, an operand range, and an operand offset (coding) — and explicitly
// cannot handle multi-operand predicates such as the Pascal no-overlap
// condition (section 4.3). This package also defines the predicate form so
// the reproduction's extended mode can implement the paper's first "future
// research" direction.
package constraint

import (
	"fmt"
	"sync"

	"extra/internal/interp"
	"extra/internal/isps"
)

// Kind discriminates constraint forms.
type Kind int

// Constraint kinds.
const (
	// Value constrains an operand to a fixed value, e.g. df = 0 ("an
	// operand is constrained to have a certain value").
	Value Kind = iota
	// Range constrains an operand to an interval, e.g. a string length
	// bound to cx<15:0> must fit in 16 bits.
	Range
	// Offset is a coding constraint: the compiler must add Delta to the
	// operator's operand before loading it into the instruction's field,
	// e.g. IBM 370 mvc stores length-1.
	Offset
	// Predicate is a multi-operand condition written as a boolean
	// expression over operands, e.g. the no-overlap condition. The paper's
	// EXTRA cannot represent these; only this reproduction's extended mode
	// uses them.
	Predicate
)

func (k Kind) String() string {
	switch k {
	case Value:
		return "value"
	case Range:
		return "range"
	case Offset:
		return "offset"
	case Predicate:
		return "predicate"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Constraint is one discovered condition.
type Constraint struct {
	Kind    Kind
	Operand string // operand name; empty for Predicate
	// Val is the required value (Value kind).
	Val uint64
	// Min and Max bound the operand inclusively (Range kind).
	Min, Max uint64
	// Delta is added to the operator's operand to produce the encoded
	// instruction operand (Offset kind).
	Delta int64
	// Pred is a boolean expression over operand names in description
	// syntax (Predicate kind).
	Pred string
	// Note says where the constraint came from.
	Note string
}

// NewValue builds a fixed-value constraint.
func NewValue(operand string, val uint64, note string) Constraint {
	return Constraint{Kind: Value, Operand: operand, Val: val, Note: note}
}

// NewRange builds an interval constraint.
func NewRange(operand string, min, max uint64, note string) Constraint {
	return Constraint{Kind: Range, Operand: operand, Min: min, Max: max, Note: note}
}

// NewBits builds the interval constraint "fits in an n-bit field".
func NewBits(operand string, bits int, note string) Constraint {
	if bits <= 0 || bits >= 64 {
		return NewRange(operand, 0, ^uint64(0), note)
	}
	return NewRange(operand, 0, 1<<uint(bits)-1, note)
}

// NewOffset builds a coding constraint: encoded = operand + delta.
func NewOffset(operand string, delta int64, note string) Constraint {
	return Constraint{Kind: Offset, Operand: operand, Delta: delta, Note: note}
}

// NewPredicate builds a multi-operand predicate constraint from an
// expression in description syntax.
func NewPredicate(pred, note string) Constraint {
	return Constraint{Kind: Predicate, Pred: pred, Note: note}
}

func (c Constraint) String() string {
	var body string
	switch c.Kind {
	case Value:
		body = fmt.Sprintf("%s = %d", c.Operand, c.Val)
	case Range:
		body = fmt.Sprintf("%d <= %s <= %d", c.Min, c.Operand, c.Max)
	case Offset:
		body = fmt.Sprintf("%s encoded as %s%+d", c.Operand, c.Operand, c.Delta)
	case Predicate:
		body = c.Pred
	}
	if c.Note != "" {
		return fmt.Sprintf("%s  (%s)", body, c.Note)
	}
	return body
}

// Satisfied evaluates the constraint against concrete operand values. For
// Offset constraints it checks nothing (they are compiler directives, not
// conditions) and returns true.
func (c Constraint) Satisfied(env map[string]uint64) (bool, error) {
	switch c.Kind {
	case Value:
		v, ok := env[c.Operand]
		if !ok {
			return false, fmt.Errorf("constraint: no value for operand %q", c.Operand)
		}
		return v == c.Val, nil
	case Range:
		v, ok := env[c.Operand]
		if !ok {
			return false, fmt.Errorf("constraint: no value for operand %q", c.Operand)
		}
		return c.Min <= v && v <= c.Max, nil
	case Offset:
		return true, nil
	case Predicate:
		v, err := EvalPredicate(c.Pred, env)
		if err != nil {
			return false, err
		}
		return v, nil
	}
	return false, fmt.Errorf("constraint: unknown kind %v", c.Kind)
}

// EvalPredicate evaluates a boolean expression in description syntax
// against operand values. It works by wrapping the expression in a
// one-statement description and running the interpreter on it; the
// wrapped description is built once per predicate text (see predicateFor).
func EvalPredicate(pred string, env map[string]uint64) (bool, error) {
	p := predicateFor(pred)
	if p.namesErr != nil {
		return false, p.namesErr
	}
	vals := make([]uint64, len(p.names))
	for i, n := range p.names {
		v, ok := env[n]
		if !ok {
			return false, fmt.Errorf("constraint: no value for operand %q in predicate %q", n, pred)
		}
		vals[i] = v
	}
	if p.descErr != nil {
		return false, p.descErr
	}
	res, err := interp.Run(p.desc, vals, interp.NewState(), 10000)
	if err != nil {
		return false, err
	}
	return res.Outputs[0] != 0, nil
}

// predicate is a predicate text parsed for evaluation: the operand names
// it mentions and the description that inputs them and outputs its value,
// or the errors that stop either from being built.
type predicate struct {
	names    []string
	namesErr error
	desc     *isps.Description
	descErr  error
}

// The predicate cache keys parsed predicates by their text. Binding JSON
// from users carries predicate text, so the cache is bounded without a
// knob: it is dropped and restarted when it reaches predCacheCap entries.
const predCacheCap = 1024

var predCache struct {
	mu sync.Mutex
	m  map[string]*predicate
}

// predicateFor returns pred parsed, parsing it on a cache miss.
func predicateFor(pred string) *predicate {
	predCache.mu.Lock()
	p := predCache.m[pred]
	predCache.mu.Unlock()
	if p != nil {
		return p
	}
	p = parsePredicate(pred)
	predCache.mu.Lock()
	defer predCache.mu.Unlock()
	if predCache.m == nil || len(predCache.m) >= predCacheCap {
		predCache.m = make(map[string]*predicate)
	}
	predCache.m[pred] = p
	return p
}

func parsePredicate(pred string) *predicate {
	names, err := predicateOperands(pred)
	if err != nil {
		return &predicate{namesErr: err}
	}
	var decls, inputs string
	for i, n := range names {
		if i > 0 {
			decls += ", "
			inputs += ", "
		}
		decls += n + ": integer"
		inputs += n
	}
	src := "pred.operation := begin\n** P **\n" + decls + ",\npred.execute := begin\n"
	if len(names) > 0 {
		src += "input (" + inputs + ");\n"
	}
	src += "output (" + pred + ");\nend\nend"
	d, err := isps.Parse(src)
	if err != nil {
		return &predicate{names: names, descErr: fmt.Errorf("constraint: bad predicate %q: %v", pred, err)}
	}
	// Interned, the description's digest (the interpreter's program
	// cache key) is a field read.
	return &predicate{names: names, desc: isps.InternDesc(d)}
}

// predicateOperands parses the predicate and returns the operand names it
// mentions, in first-occurrence order. Parsing reuses the description
// grammar by wrapping the predicate in a one-assignment skeleton. Note that
// the skeleton's placeholder register is named so it cannot collide with an
// operand: a predicate mentioning it would simply constrain that name.
func predicateOperands(pred string) ([]string, error) {
	wrapped := "q.operation := begin\n** P **\nzzz: integer,\nq.execute := begin\nzzz <- " + pred + ";\nend\nend"
	dd, err := isps.Parse(wrapped)
	if err != nil {
		return nil, fmt.Errorf("constraint: cannot parse predicate %q: %v", pred, err)
	}
	assign := dd.Routine().Body.Stmts[0].(*isps.AssignStmt)
	seen := map[string]bool{}
	var names []string
	isps.Walk(assign.RHS, func(n isps.Node, _ isps.Path) bool {
		if id, ok := n.(*isps.Ident); ok && !seen[id.Name] {
			seen[id.Name] = true
			names = append(names, id.Name)
		}
		return true
	})
	return names, nil
}

// AllSatisfied reports whether every constraint holds for env; the first
// failing constraint is returned.
func AllSatisfied(cs []Constraint, env map[string]uint64) (bool, *Constraint, error) {
	for i := range cs {
		ok, err := cs[i].Satisfied(env)
		if err != nil {
			return false, &cs[i], err
		}
		if !ok {
			return false, &cs[i], nil
		}
	}
	return true, nil, nil
}
