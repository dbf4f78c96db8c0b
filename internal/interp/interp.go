// Package interp executes ISPS-like descriptions on concrete machine
// states. It provides the ground-truth semantics for the EXTRA analysis: a
// transformation is checked by running the description before and after on
// randomized states and comparing results (the paper verified its results by
// hand against production compilers; differential execution is the
// reproduction's substitute, and a stronger one).
//
// Semantics:
//
//   - Registers hold unsigned values truncated to their declared width;
//     width 0 ("integer") means a full 64-bit value.
//   - Main memory Mb is a sparse byte array indexed by the untruncated
//     address value.
//   - Arithmetic wraps modulo 2^64; relational operators yield 0 or 1;
//     and/or/xor/not are logical (any nonzero value counts as true).
//   - input(...) consumes operand values in order; output(...) appends
//     result values in order.
//   - Niladic functions execute their body on the shared register state;
//     the call's value is the last assignment to the function's own name.
//   - Every executed statement costs one step; a run that exceeds its step
//     budget fails with ErrStepLimit.
//
// Execution model: a description is compiled once into a program of Go
// closures (compile.go). Every register, function result and undeclared
// name the description mentions becomes an integer slot, width masks are
// folded into the assignments, and loops and exit_when become control
// codes returned by the compiled statements, so a run does no string
// hashing and no AST dispatch. Programs are cached by the description's
// structural isps.Hash digest (cache.go), so an interned description is
// compiled once per process and its digest is a field read. The cache is
// sharded and each shard is dropped and restarted when it fills, which
// bounds it at 1024 programs whatever descriptions callers submit; a
// dropped program is simply compiled again. A repeat loop with an empty
// body executes no statements and can never exit, so instead of spinning
// without charging a step it fails with ErrStepLimit at once.
//
// A run loads the state's initial Regs values into slots and writes back
// only the registers it assigned. Memory reads and writes go straight to
// the state, whose Mem may overlay a shared read-only image (NewStateOver):
// two runs of a differential check then start from one image, each writes
// only its own overlay, and SameMemory compares just the written addresses.
package interp

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"sync"
	"time"

	"extra/internal/fault/inject"
	"extra/internal/isps"
	"extra/internal/obs"
)

// State is a concrete machine state: register values and main memory.
type State struct {
	// Regs holds register values by name. A run reads the initial values
	// of the registers it mentions and writes back those it assigns; with
	// a nil Regs it starts every register at zero and keeps none.
	Regs map[string]uint64
	// Mem holds the memory bytes the state owns. For a state built by
	// NewStateOver it holds only the bytes written since; every other
	// address reads through to the shared base image.
	Mem map[uint64]byte
	// base is the read-only image under Mem, nil for a self-contained
	// state.
	base map[uint64]byte
}

// NewState returns an empty state.
func NewState() *State {
	return &State{Regs: map[string]uint64{}, Mem: map[uint64]byte{}}
}

// NewStateOver returns a state for a run judged only by its outputs and
// memory, as a differential check judges it. Its Regs map is nil, so
// registers start at zero and their final values are not kept. Its memory
// is a copy-on-write overlay on base: reads of addresses the state has not
// written come from base, writes land in the state's own (initially empty)
// Mem. base is never modified and may be shared by any number of states,
// but the caller must not change it while they are in use.
func NewStateOver(base map[uint64]byte) *State {
	return &State{Mem: map[uint64]byte{}, base: base}
}

// Clone returns a copy of the state that shares no mutable storage with
// it. An overlay's clone shares the read-only base image.
func (s *State) Clone() *State {
	return &State{Regs: maps.Clone(s.Regs), Mem: maps.Clone(s.Mem), base: s.base}
}

// Load returns the memory byte at addr: the state's own byte if it has
// one, otherwise the base image's, otherwise 0.
func (s *State) Load(addr uint64) byte {
	if b, ok := s.Mem[addr]; ok {
		return b
	}
	return s.base[addr]
}

// SetString stores the bytes of str into memory starting at addr.
func (s *State) SetString(addr uint64, str string) {
	for i := 0; i < len(str); i++ {
		s.Mem[addr+uint64(i)] = str[i]
	}
}

// ReadString reads n bytes of memory starting at addr.
func (s *State) ReadString(addr uint64, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = s.Load(addr + uint64(i))
	}
	return string(b)
}

// SameMemory reports whether a and b read the same byte at every address,
// a byte present in neither reading 0. When both overlay the same base
// image only the addresses either state wrote can differ, so only those
// are compared.
func SameMemory(a, b *State) bool {
	if !sameMemKeys(a, b, a.Mem) || !sameMemKeys(a, b, b.Mem) {
		return false
	}
	if reflect.ValueOf(a.base).UnsafePointer() == reflect.ValueOf(b.base).UnsafePointer() {
		return true
	}
	return sameMemKeys(a, b, a.base) && sameMemKeys(a, b, b.base)
}

func sameMemKeys(a, b *State, keys map[uint64]byte) bool {
	for k := range keys {
		if a.Load(k) != b.Load(k) {
			return false
		}
	}
	return true
}

// Result is the outcome of executing a description.
type Result struct {
	// Outputs are the values produced by output statements, in order.
	Outputs []uint64
	// Steps is the number of statements executed.
	Steps int
}

// Every run failure is typed: it is one of the sentinels below, wraps one
// of them (classify with errors.Is), is an *AssertError, or wraps the
// context's error.
var (
	// ErrStepLimit is returned when execution exceeds the configured
	// budget, which usually means a loop that cannot terminate on the
	// given input.
	ErrStepLimit = errors.New("interp: step limit exceeded")
	// ErrCallDepth is returned when function calls nest past the fixed
	// depth bound. It is wrapped with the offending function's name.
	ErrCallDepth = errors.New("interp: call depth limit exceeded")
	// ErrExit reports an exit_when with no enclosing repeat loop. It is
	// returned as is for one in the routine, and wrapped with the
	// function's name for one that escapes a function body.
	ErrExit = errors.New("interp: exit_when outside of repeat loop")
	// ErrInputExhausted is wrapped by the error of an input statement
	// that runs out of operand values.
	ErrInputExhausted = errors.New("interp: input exhausted")
	// ErrDivideByZero is wrapped by the error of a division by zero.
	ErrDivideByZero = errors.New("interp: division by zero")
	// ErrMalformed is wrapped by the errors of descriptions that cannot
	// execute: no routine, a call of an undeclared function, a bad
	// assignment target or an unknown operator.
	ErrMalformed = errors.New("interp: malformed description")
)

// runError is a failure of a known class: Error gives the specific
// message, Unwrap the class sentinel.
type runError struct {
	msg   string
	class error
}

func (e *runError) Error() string { return e.msg }
func (e *runError) Unwrap() error { return e.class }

func classErr(class error, format string, args ...any) error {
	return &runError{msg: fmt.Sprintf(format, args...), class: class}
}

// AssertError reports a violated assert statement.
type AssertError struct {
	Cond string
}

func (e *AssertError) Error() string {
	return fmt.Sprintf("interp: assertion failed: %s", e.Cond)
}

// ctxCheckMask gates the cancellation poll to one check per 1024
// statements.
const ctxCheckMask = 1<<10 - 1

// DefaultStepLimit bounds execution when the caller passes limit <= 0.
const DefaultStepLimit = 1 << 20

// maxCallDepth bounds function-call nesting.
const maxCallDepth = 64

// Run executes the description's routine against the given state, consuming
// inputs at input statements. The state is mutated in place, also when the
// run fails. limit bounds the number of executed statements (<= 0 selects
// DefaultStepLimit). Runs and executed-statement counts are recorded per
// description in the process metrics registry.
func Run(d *isps.Description, inputs []uint64, state *State, limit int) (*Result, error) {
	return RunCtx(nil, d, inputs, state, limit)
}

// RunCtx is Run bounded by ctx: execution is abandoned (with ctx.Err
// wrapped in the returned error) shortly after the context is cancelled or
// its deadline passes. A nil ctx disables the check.
func RunCtx(ctx context.Context, d *isps.Description, inputs []uint64, state *State, limit int) (*Result, error) {
	start := time.Now()
	res, err := runDesc(ctx, d, inputs, state, limit)
	r := obs.Default()
	if err != nil {
		r.Inc("interp.run.err", d.Name)
	} else {
		r.Inc("interp.run", d.Name)
		r.Observe("interp.steps", d.Name, uint64(res.Steps))
	}
	r.ObserveSince("interp.run.ns", d.Name, start)
	return res, err
}

func runDesc(ctx context.Context, d *isps.Description, inputs []uint64, state *State, limit int) (*Result, error) {
	if limit <= 0 {
		limit = DefaultStepLimit
	}
	// Fault-injection seam: an armed "interp.steplimit" fault replaces the
	// step budget with its (much smaller) payload, modelling budget
	// exhaustion deterministically for chaos tests.
	if f, ok := inject.Fire("interp.steplimit"); ok {
		limit = int(f.Val)
		if limit < 1 {
			limit = 1
		}
	}
	p := programFor(d)
	if p.err != nil {
		return nil, p.err
	}
	m := newMachine(ctx, p, state, inputs, limit)
	defer m.release()
	for name, v := range state.Regs {
		if s, ok := p.slotOf[name]; ok {
			m.regs[s] = v
		}
	}
	c := m.exec(p.body)
	if state.Regs != nil {
		for s, w := range m.dirty {
			if w {
				state.Regs[p.names[s]] = m.regs[s]
			}
		}
	}
	switch c {
	case ctlErr:
		return nil, m.err
	case ctlExit:
		return nil, ErrExit
	}
	return &Result{Outputs: m.outputs, Steps: m.steps}, nil
}

// machinePool recycles machines, and with them their register slices.
var machinePool = sync.Pool{New: func() any { return new(machine) }}

func newMachine(ctx context.Context, p *program, state *State, inputs []uint64, limit int) *machine {
	m := machinePool.Get().(*machine)
	n := len(p.names)
	if cap(m.regs) < n {
		m.regs, m.dirty = make([]uint64, n), make([]bool, n)
	}
	regs, dirty := m.regs[:n], m.dirty[:n]
	clear(regs)
	clear(dirty)
	*m = machine{prog: p, regs: regs, dirty: dirty, mem: state.Mem, base: state.base,
		inputs: inputs, limit: limit, ctx: ctx}
	return m
}

// release returns m to the pool, keeping only its register slices.
func (m *machine) release() {
	*m = machine{regs: m.regs, dirty: m.dirty}
	machinePool.Put(m)
}

// machine is the mutable state of one run of a compiled program.
type machine struct {
	prog  *program
	regs  []uint64
	dirty []bool // dirty[s]: the run assigned slot s
	// mem is the state's own memory; base the read-only image under it.
	mem     map[uint64]byte
	base    map[uint64]byte
	inputs  []uint64
	nextIn  int
	outputs []uint64
	steps   int
	limit   int
	depth   int
	// ctx, when non-nil, is polled every ctxCheckMask+1 statements so a
	// deadline or cancellation stops a runaway description promptly
	// without taxing the per-statement hot path.
	ctx context.Context
	// err is the run's failure. It is set once, at the failing point;
	// compiled code stops evaluating as soon as it is non-nil.
	err error
}

// ctl is the control outcome of a compiled statement.
type ctl uint8

const (
	ctlNext ctl = iota // fall through to the next statement
	ctlExit            // an exit_when fired: leave the innermost repeat
	ctlErr             // the run failed; m.err says why
)

// exec runs a compiled block, charging one step per statement.
func (m *machine) exec(b []stmtFn) ctl {
	for _, s := range b {
		m.steps++
		if m.steps > m.limit {
			m.err = ErrStepLimit
			return ctlErr
		}
		if m.ctx != nil && m.steps&ctxCheckMask == 0 {
			if err := m.ctx.Err(); err != nil {
				m.err = fmt.Errorf("interp: %s interrupted after %d steps: %w", m.prog.name, m.steps, err)
				return ctlErr
			}
		}
		if c := s(m); c != ctlNext {
			return c
		}
	}
	return ctlNext
}

func (m *machine) load(addr uint64) uint64 {
	if b, ok := m.mem[addr]; ok {
		return uint64(b)
	}
	return uint64(m.base[addr])
}

// call runs a function body and returns the function's value.
func (m *machine) call(f *function) uint64 {
	if m.depth >= maxCallDepth {
		m.err = f.tooDeep
		return 0
	}
	m.depth++
	c := m.exec(f.body)
	m.depth--
	switch c {
	case ctlErr:
		return 0
	case ctlExit:
		m.err = f.escaped
		return 0
	}
	// The function's value is whatever was last assigned to its own name.
	return m.regs[f.slot]
}
