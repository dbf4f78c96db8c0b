package dataflow

import (
	"testing"

	"extra/internal/isps"
)

func parse(t *testing.T, decls, body string) *isps.Description {
	t.Helper()
	src := "t.operation := begin\n** S **\n" + decls + "\nt.execute := begin\n" + body + "\nend\nend"
	d, err := isps.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return d
}

func TestEffectsAssignment(t *testing.T) {
	d := parse(t, "a: integer, b: integer,", "input (a);\nb <- a + 1;\noutput (b);")
	asn := d.Routine().Body.Stmts[1]
	e := NodeEffects(asn, d)
	if !e.MayUse.Has("a") || e.MayUse.Has("b") {
		t.Errorf("uses = %v", e.MayUse)
	}
	if !e.MustDef.Has("b") || e.MustDef.Has("a") {
		t.Errorf("must defs = %v", e.MustDef)
	}
}

func TestEffectsMemoryPseudoResource(t *testing.T) {
	d := parse(t, "a: integer, b: integer,", "input (a, b);\nMb[a] <- b;\nb <- Mb[a];")
	store := d.Routine().Body.Stmts[1]
	load := d.Routine().Body.Stmts[2]
	se := NodeEffects(store, d)
	if !se.MayDef.Has(MemName) {
		t.Error("store does not may-define memory")
	}
	if se.MustDef.Has(MemName) {
		t.Error("a byte store must not kill all of memory")
	}
	le := NodeEffects(load, d)
	if !le.MayUse.Has(MemName) {
		t.Error("load does not use memory")
	}
	if Independent(store, load, d) {
		t.Error("store and load through memory reported independent")
	}
}

func TestEffectsBranchesIntersectMustDefs(t *testing.T) {
	d := parse(t, "c<>, x: integer, y: integer,",
		"input (c);\nif c then x <- 1; y <- 1; else x <- 2; end_if;")
	ifs := d.Routine().Body.Stmts[1]
	e := NodeEffects(ifs, d)
	if !e.MustDef.Has("x") {
		t.Error("x assigned on both paths should be a must-def")
	}
	if e.MustDef.Has("y") {
		t.Error("y assigned on one path must not be a must-def")
	}
	if !e.MayDef.Has("y") {
		t.Error("y should be a may-def")
	}
}

func TestEffectsLoopHasNoMustDefs(t *testing.T) {
	d := parse(t, "n: integer, x: integer,",
		"input (n);\nrepeat\nexit_when (n = 0);\nx <- 1;\nn <- n - 1;\nend_repeat;")
	loop := d.Routine().Body.Stmts[1]
	e := NodeEffects(loop, d)
	if len(e.MustDef) != 0 {
		t.Errorf("loop must-defs = %v, want none (an early exit skips the body)", e.MustDef)
	}
	if !e.MayDef.Has("x") || !e.MayDef.Has("n") {
		t.Errorf("loop may-defs = %v", e.MayDef)
	}
}

func TestCallEffects(t *testing.T) {
	src := `t.operation := begin
** S **
  p: integer, x: integer,
  f()<7:0> := begin
    f <- Mb[p];
    p <- p + 1;
  end
  t.execute := begin
    input (p);
    x <- f();
    output (x);
  end
end`
	d := isps.MustParse(src)
	call := d.Routine().Body.Stmts[1]
	e := NodeEffects(call, d)
	if !e.MayDef.Has("p") {
		t.Error("call's side effect on p not visible")
	}
	if !e.MayUse.Has(MemName) {
		t.Error("call's memory read not visible")
	}
	if !e.MayUse.Has("f") {
		t.Error("call's return slot not read")
	}
}

func TestIndependent(t *testing.T) {
	d := parse(t, "a: integer, b: integer, c: integer,",
		"input (a, b);\na <- a + 1;\nb <- b + 1;\nc <- a;\noutput (c);")
	s := d.Routine().Body.Stmts
	if !Independent(s[1], s[2], d) {
		t.Error("a++ and b++ should be independent")
	}
	if Independent(s[1], s[3], d) {
		t.Error("a++ and c <- a must conflict")
	}
	if Independent(s[0], s[0], d) {
		t.Error("two input statements must conflict on the i/o stream")
	}
}

func TestExitNeverIndependent(t *testing.T) {
	d := parse(t, "a: integer,",
		"input (a);\nrepeat\nexit_when (a = 0);\na <- a - 1;\nend_repeat;")
	loop := d.Routine().Body.Stmts[1].(*isps.RepeatStmt)
	if Independent(loop.Body.Stmts[0], loop.Body.Stmts[1], d) {
		t.Error("an exit_when may never be reordered")
	}
}

func TestLivenessStraightLine(t *testing.T) {
	d := parse(t, "a: integer, b: integer,",
		"input (a);\nb <- a + 1;\na <- 0;\noutput (b);")
	g := BuildCFG(d.Routine().Body, d)
	l := g.Liveness()
	// After b <- a + 1, a is dead (it is reassigned, then unused).
	live, err := l.LiveAfter(isps.Path{1}, "a")
	if err != nil {
		t.Fatal(err)
	}
	if live {
		t.Error("a live after its last use")
	}
	liveB, _ := l.LiveAfter(isps.Path{1}, "b")
	if !liveB {
		t.Error("b dead despite the output")
	}
}

func TestLivenessThroughLoop(t *testing.T) {
	d := parse(t, "n: integer, s: integer,",
		"input (n);\ns <- 0;\nrepeat\nexit_when (n = 0);\ns <- s + 1;\nn <- n - 1;\nend_repeat;\noutput (s);")
	g := BuildCFG(d.Routine().Body, d)
	l := g.Liveness()
	// n is read at the loop top on the back edge: live after its decrement.
	live, err := l.LiveAfter(isps.Path{2, 0, 2}, "n")
	if err != nil {
		t.Fatal(err)
	}
	if !live {
		t.Error("n dead after decrement despite the back edge")
	}
	// At loop exit, s is live (output) and n is dead.
	liveN, err := l.LiveAtLoopExit(isps.Path{2}, "n")
	if err != nil {
		t.Fatal(err)
	}
	if liveN {
		t.Error("n live at loop exit")
	}
	liveS, _ := l.LiveAtLoopExit(isps.Path{2}, "s")
	if !liveS {
		t.Error("s dead at loop exit despite the output")
	}
}

func TestLiveAtStmtExitOfConditional(t *testing.T) {
	d := parse(t, "c<>, x: integer,",
		"input (c);\nif c then x <- 1; else x <- 2; end_if;\noutput (c);")
	g := BuildCFG(d.Routine().Body, d)
	l := g.Liveness()
	// x is used only inside the conditional: dead once it completes.
	live, err := l.LiveAtStmtExit(isps.Path{1}, "x")
	if err != nil {
		t.Fatal(err)
	}
	if live {
		t.Error("x live after the whole conditional")
	}
	liveC, _ := l.LiveAtStmtExit(isps.Path{1}, "c")
	if !liveC {
		t.Error("c dead despite the output after the conditional")
	}
}

func TestNodeAtUnknownPath(t *testing.T) {
	d := parse(t, "a: integer,", "input (a);")
	g := BuildCFG(d.Routine().Body, d)
	if _, err := g.NodeAt(isps.Path{9}); err == nil {
		t.Error("NodeAt accepted a bogus path")
	}
}

func TestHelpers(t *testing.T) {
	d := parse(t, "a: integer, b: integer,", "input (a);\nMb[a] <- 1;\nb <- Mb[a + 1];")
	s := d.Routine().Body.Stmts
	if !WritesMemory(s[1], d) || WritesMemory(s[2], d) {
		t.Error("WritesMemory misclassifies")
	}
	if ReadsMemory(s[1]) {
		t.Error("a pure store reported as reading memory")
	}
	if !ReadsMemory(s[2]) {
		t.Error("load not reported as reading memory")
	}
	if !UsesName(s[2], "a") || UsesName(s[1], "b") {
		t.Error("UsesName misclassifies")
	}
	if HasCalls(s[1]) {
		t.Error("phantom call")
	}
}

// TestConflicts: the reorder check over effect summaries. Memory and the
// i/o streams clash as pseudo-resources, a call clashes through its
// callee's side effects and its return slot, and exit_when — whose effects
// can be disjoint from its neighbour's — is refused by Independent, not by
// Conflicts.
func TestConflicts(t *testing.T) {
	d := isps.MustParse(`t.operation := begin
** S **
  a: integer, b: integer, c: integer, p: integer,
  f()<7:0> := begin
    f <- Mb[p];
    p <- p + 1;
  end
  t.execute := begin
    input (a, b);
    Mb[a] <- b;
    c <- Mb[a + 1];
    b <- Mb[b];
    c <- f();
    a <- p;
    output (c);
    repeat
      exit_when (a = 0);
      b <- 1;
    end_repeat;
  end
end`)
	s := d.Routine().Body.Stmts
	loop := s[7].(*isps.RepeatStmt).Body.Stmts
	eff := func(n isps.Node) Effects { return NodeEffects(n, d) }
	cases := []struct {
		what string
		x, y isps.Stmt
		want string // "" when the pair is disjoint
	}{
		{"Mb store vs Mb load", s[1], s[2], MemName},
		{"two Mb loads", s[2], s[3], ""},
		{"Mb load vs unrelated def", s[3], s[5], ""},
		{"input vs output", s[0], s[6], IOName},
		{"call's side effect vs its reader", s[4], s[5], "p"},
		{"call's Mb read vs a store", s[4], s[1], MemName},
		{"exit_when vs disjoint def", loop[0], loop[1], ""},
	}
	for _, c := range cases {
		name, ok := eff(c.x).Conflicts(eff(c.y))
		if ok != (c.want != "") || name != c.want {
			t.Errorf("%s: Conflicts = (%q, %v), want %q", c.what, name, ok, c.want)
		}
		if _, back := eff(c.y).Conflicts(eff(c.x)); back != ok {
			t.Errorf("%s: Conflicts is not symmetric", c.what)
		}
	}
	if Independent(loop[0], loop[1], d) {
		t.Error("exit_when reordered although Independent must refuse control transfers")
	}
	if !Independent(s[3], s[5], d) {
		t.Error("disjoint statements reported dependent")
	}
	// The i/o stream's conflict also separates two outputs.
	if _, ok := eff(s[6]).Conflicts(eff(s[6])); !ok {
		t.Error("two outputs may not be reordered")
	}
	// A call reads its function's return slot.
	if !eff(s[4]).MayUse.Has("f") {
		t.Error("call's return slot not read")
	}
}

// TestEffectsNestedBranchMustDefs: must-defs intersect through nested
// conditionals, and a def only in the else branch is no must-def either.
func TestEffectsNestedBranchMustDefs(t *testing.T) {
	d := parse(t, "c<>, e<>, x: integer, z: integer,",
		"input (c, e);\nif c then if e then x <- 1; else x <- 2; end_if; else x <- 3; z <- 1; end_if;")
	e := NodeEffects(d.Routine().Body.Stmts[1], d)
	if !e.MustDef.Has("x") {
		t.Error("x assigned on every path should be a must-def")
	}
	if e.MustDef.Has("z") {
		t.Error("z assigned only in the else branch must not be a must-def")
	}
	if !e.MayDef.Has("z") || !e.MayUse.Has("e") {
		t.Errorf("may sets = %v / %v", e.MayDef, e.MayUse)
	}
}
