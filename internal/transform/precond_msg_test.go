package transform

import (
	"fmt"
	"testing"

	"extra/internal/isps"
	"extra/internal/langops"
	"extra/internal/machines"
)

// eagerMsg renders a precondition failure the way errPrecond did before
// formatting became lazy: nodes printed to source text at build time, every
// other argument passed through.
func eagerMsg(pe *PrecondError) string {
	args := make([]any, len(pe.args))
	for i, a := range pe.args {
		switch x := a.(type) {
		case exprText:
			args[i] = isps.ExprString(x.e)
		case stmtText:
			args[i] = isps.StmtString(x.s)
		default:
			args[i] = a
		}
	}
	return fmt.Sprintf("transform %s: %s", pe.Xform, fmt.Sprintf(pe.Format, args...))
}

// TestPrecondMessagesMatchEagerFormatting: for failures of every
// registered transformation, the lazily formatted Error() text is
// byte-identical to eager formatting and stays so when the caller reuses
// its path buffer afterwards.
func TestPrecondMessagesMatchEagerFormatting(t *testing.T) {
	descs := []*isps.Description{parse(t, "a: integer, f<>, k<7:0>,",
		`input (a, f, k);
if f then a <- a + 1; else a <- 0; end_if;
repeat
exit_when (k = 0);
Mb[a + k] <- 1;
k <- k - 1;
end_repeat;
output (a);`)}
	for _, e := range machines.All() {
		descs = append(descs, isps.MustParse(e.Source))
	}
	for _, e := range langops.All() {
		descs = append(descs, isps.MustParse(e.Source))
	}
	argSets := []Args{
		nil,
		{"dir": "up"},
		{"operand": "a", "value": "0", "var": "a", "flag": "f", "to": "zz",
			"temp": "zz", "width": "8", "i": "zz", "n": "a", "len": "zz",
			"p": "a", "keep": "a", "drop": "f", "k": "k", "from": "a",
			"stmt": "a <- 0;", "stmts": "output (0);", "abstract": "zz",
			"delta": "-1", "min": "0", "max": "5", "pred": "a > 0",
			"order": "a,f,k", "func": "a", "src": "a", "dst": "f"},
		{"operand": "zz", "var": "zz", "flag": "k", "to": "a", "temp": "a",
			"i": "a", "n": "k", "len": "a", "p": "zz", "keep": "zz", "drop": "zz",
			"k": "zz", "from": "zz", "stmt": "output (a);", "stmts": "a <- 0;",
			"abstract": "a", "delta": "0", "pred": "a >", "order": "zz",
			"func": "zz", "src": "zz", "dst": "zz", "value": "1", "width": "0"},
	}
	failures := map[string]int{}
	for _, d := range descs {
		var paths []isps.Path
		isps.Walk(d, func(n isps.Node, p isps.Path) bool {
			paths = append(paths, append(isps.Path(nil), p...))
			return true
		})
		for _, tr := range All() {
			for _, p := range paths {
				for _, args := range argSets {
					at := append(isps.Path(nil), p...)
					_, err := tr.Apply(d, at, args)
					pe, ok := AsPrecond(err)
					if !ok {
						continue
					}
					failures[tr.Name]++
					want := eagerMsg(pe)
					if got := pe.Error(); got != want {
						t.Errorf("%s at %s: lazy %q, eager %q", tr.Name, p, got, want)
					}
					for i := range at {
						at[i] = 99
					}
					if got := pe.Error(); got != want {
						t.Errorf("%s at %s: message changed with the caller's path buffer: %q, want %q", tr.Name, p, got, want)
					}
				}
			}
		}
	}
	for _, tr := range All() {
		if failures[tr.Name] == 0 {
			t.Errorf("%s: no precondition failure found to check", tr.Name)
		}
	}
}

// TestAsPrecondFastPath: a bare and a wrapped precondition failure are
// both recognized; other errors are not.
func TestAsPrecondFastPath(t *testing.T) {
	bare := errPrecond("x", "statement at %s has no successor", isps.Path{1, 2})
	wrapped := fmt.Errorf("step 3: %w", bare)
	for _, err := range []error{bare, wrapped} {
		pe, ok := AsPrecond(err)
		if !ok || pe.Xform != "x" || pe.Msg() != "statement at /1/2 has no successor" {
			t.Errorf("AsPrecond(%v) = %v, %v", err, pe, ok)
		}
		if !IsPrecond(err) {
			t.Errorf("IsPrecond(%v) = false", err)
		}
	}
	if IsPrecond(fmt.Errorf("plain")) || IsPrecond(nil) {
		t.Error("non-precondition error recognized as one")
	}
}
