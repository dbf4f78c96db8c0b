package interp

import (
	"context"
	"errors"
	"testing"

	"extra/internal/isps"
	"extra/internal/langops"
	"extra/internal/machines"
)

// TestOverlayState: runs over a shared image read it, write only their
// own overlays, and compare equal exactly when every address reads the
// same.
func TestOverlayState(t *testing.T) {
	base := map[uint64]byte{10: 'a', 11: 'b', 12: 'c'}
	st1, st2 := NewStateOver(base), NewStateOver(base)
	// sassign: input (dst, src, len).
	run(t, langops.Get("sassign"), []uint64{500, 10, 3}, st1)
	run(t, machines.Get("mvc"), []uint64{500, 10, 2}, st2)
	if got := st1.ReadString(500, 3); got != "abc" {
		t.Errorf("overlay copy read %q", got)
	}
	if len(base) != 3 || base[500] != 0 {
		t.Errorf("base image modified: %v", base)
	}
	if len(st1.Mem) != 3 {
		t.Errorf("overlay holds %d bytes, want only the 3 written", len(st1.Mem))
	}
	if !SameMemory(st1, st2) {
		t.Error("equal final memories compare unequal")
	}
	st2.Mem[11] = 'x'
	if SameMemory(st1, st2) || SameMemory(st2, st1) {
		t.Error("an overwritten base byte went unnoticed")
	}
	// A zero written over a missing byte reads like the missing byte.
	st3 := NewStateOver(base)
	st3.Mem[900] = 0
	if !SameMemory(st3, NewStateOver(base)) {
		t.Error("written zero differs from an absent byte")
	}
	// Different bases are compared in full.
	plain := NewState()
	for k, v := range base {
		plain.Mem[k] = v
	}
	if !SameMemory(plain, NewStateOver(base)) {
		t.Error("equal images under different bases compare unequal")
	}
	plain.Mem[12] = 'z'
	if SameMemory(NewStateOver(base), plain) {
		t.Error("a differing self-contained state compares equal")
	}
}

// TestRegisterWriteBack: initial register values are read, and only the
// registers a run assigns appear in the state afterwards.
func TestRegisterWriteBack(t *testing.T) {
	d := isps.MustParse(`w.operation := begin
** S **
  a<7:0>, b: integer, c: integer,
  w.execute := begin
    input (a);
    if a > 100 then c <- b; end_if;
    output (a + b);
  end
end`)
	st := NewState()
	st.Regs["b"] = 1000
	st.Regs["other"] = 5
	res := run(t, d, []uint64{300}, st)
	if res.Outputs[0] != 44+1000 {
		t.Errorf("output %v, want [1044]", res.Outputs)
	}
	want := map[string]uint64{"a": 44, "b": 1000, "other": 5}
	if len(st.Regs) != len(want) {
		t.Errorf("regs = %v, want %v", st.Regs, want)
	}
	for k, v := range want {
		if st.Regs[k] != v {
			t.Errorf("regs = %v, want %v", st.Regs, want)
		}
	}
}

// TestTypedErrors: each failure class is recognisable with errors.Is.
func TestTypedErrors(t *testing.T) {
	cases := []struct {
		src  string
		in   []uint64
		want error
	}{
		{`d.operation := begin ** S ** x: integer, d.execute := begin input (x); output (1 / x); end end`, []uint64{0}, ErrDivideByZero},
		{`d.operation := begin ** S ** x: integer, d.execute := begin input (x); end end`, nil, ErrInputExhausted},
		{`d.operation := begin ** S ** x: integer, d.execute := begin exit_when (1); end end`, nil, ErrExit},
		{`d.operation := begin ** S ** x: integer, g()<7:0> := begin exit_when (1); end, d.execute := begin x <- g(); end end`, nil, ErrExit},
		{`d.operation := begin ** S ** x: integer, d.execute := begin x <- h(); end end`, nil, ErrMalformed},
		{`d.operation := begin ** S ** x: integer end`, nil, ErrMalformed},
		// An empty loop executes no statements, so only this check stops it.
		{`d.operation := begin ** S ** x: integer, d.execute := begin repeat end_repeat; end end`, nil, ErrStepLimit},
	}
	for _, c := range cases {
		_, err := Run(isps.MustParse(c.src), c.in, NewState(), 0)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.src, err, c.want)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spin := isps.MustParse(`s.operation := begin ** S ** x: integer, s.execute := begin repeat x <- x + 1; end_repeat; end end`)
	if _, err := RunCtx(ctx, spin, nil, NewState(), 0); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run: err = %v", err)
	}
}
