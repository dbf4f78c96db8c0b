package core

import (
	"reflect"
	"testing"

	"extra/internal/isps"
	"extra/internal/obs"
	"extra/internal/transform"
)

// renameAll renames every register of d to prefix+name with global.rename.
func renameAll(t *testing.T, d *isps.Description, prefix string) *isps.Description {
	t.Helper()
	tr, err := transform.Get("global.rename")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range d.Regs() {
		out, err := tr.Apply(d, nil, transform.Args{"from": r.Name, "to": prefix + r.Name})
		if err != nil {
			t.Fatalf("rename %s: %v", r.Name, err)
		}
		d = out.Desc
	}
	return d
}

// reasonCounts runs the auto-search on the pair under a fresh registry and
// returns its transform.precond.reason series, label -> count.
func reasonCounts(t *testing.T, op, ins *isps.Description) map[string]uint64 {
	t.Helper()
	s, err := NewSession(op, ins)
	if err != nil {
		t.Fatal(err)
	}
	s.Metrics = obs.NewRegistry()
	if _, err := s.AutoComplete(3, 50000); err != nil {
		t.Fatalf("AutoComplete: %v", err)
	}
	out := map[string]uint64{}
	for _, c := range s.Metrics.Snapshot().Counters {
		if c.Metric == "transform.precond.reason" {
			out[c.Label] = c.Value
		}
	}
	return out
}

// TestReasonLabelsIgnoreNames: transform.precond.reason is labeled by the
// refusal's template, not its formatted text, so auto-searching two
// renamed copies of one pair yields the same label set with the same
// counts. (Labels holding the rejected expression's text gave each renamed
// copy its own series.)
func TestReasonLabelsIgnoreNames(t *testing.T) {
	op := isps.MustParse(`cpy.operation := begin
** S **
  n: integer, a: integer, b: integer,
  cpy.execute := begin
    input (n, a, b);
    repeat
      exit_when (n <= 0);
      Mb[b] <- Mb[a];
      a <- a + 1;
      b <- b + 1;
      n <- n - 1;
    end_repeat;
  end
end`)
	ins := isps.MustParse(`blt.instruction := begin
** S **
  cnt: integer, src: integer, dst: integer,
  blt.execute := begin
    input (cnt, src, dst);
    repeat
      exit_when (0 = cnt);
      Mb[dst] <- Mb[src];
      src <- src + 1;
      dst <- dst + 1;
      cnt <- cnt - 1;
    end_repeat;
  end
end`)
	x := reasonCounts(t, renameAll(t, op, "x_"), renameAll(t, ins, "x_"))
	y := reasonCounts(t, renameAll(t, op, "y_"), renameAll(t, ins, "y_"))
	if len(x) == 0 {
		t.Fatal("the search refused no probe; nothing compared")
	}
	if !reflect.DeepEqual(x, y) {
		t.Errorf("renamed copies label refusals differently:\n%v\n%v", x, y)
	}
}
