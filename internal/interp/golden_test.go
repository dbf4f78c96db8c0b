package interp

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"extra/internal/isps"
	"extra/internal/langops"
	"extra/internal/machines"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current interpreter")

// goldenPath holds the reference transcript. It was recorded from the
// original tree-walking interpreter, so it pins the compiled engine to
// those semantics: step counts, outputs, final registers, written memory
// and error text. Regenerate it with -update only for an intended change
// of semantics.
var goldenPath = filepath.Join("testdata", "golden.txt")

// goldenExtras exercise what the catalog never does: every error class,
// expression evaluation order around a failure, function width masking,
// undeclared names, and a description without a routine. None of them
// needs to pass isps.Validate; the interpreter does not require it.
var goldenExtras = []string{
	`recurse.operation := begin
** S **
  n: integer,
  f()<15:0> := begin
    n <- n + 1;
    f <- f();
  end,
  recurse.execute := begin
    input (n);
    n <- f();
    output (n);
  end
end`,
	`asserts.operation := begin
** S **
  x<7:0>, y: integer,
  asserts.execute := begin
    input (x, y);
    y <- y + 1;
    assert (x > 2 and y <> 5);
    Mb[x] <- y;
    output (x, y);
  end
end`,
	`escape.operation := begin
** S **
  x: integer,
  g()<7:0> := begin
    g <- x;
    exit_when (x > 3);
    g <- x + 1;
  end,
  escape.execute := begin
    input (x);
    repeat
      x <- x + g();
      exit_when (x > 10);
    end_repeat;
    output (x);
  end
end`,
	`toplevel.operation := begin
** S **
  x: integer,
  toplevel.execute := begin
    input (x);
    Mb[x] <- 7;
    exit_when (x > 5);
    output (x);
  end
end`,
	`divide.operation := begin
** S **
  a: integer, b: integer, c<3:0>,
  h()<3:0> := begin
    c <- c + 1;
    h <- c + a;
  end,
  divide.execute := begin
    input (a, b);
    c <- 9;
    output (a / b, h());
    Mb[a] <- h() / b;
    Mb[(a / b)] <- h();
    output (h() + (a / b), c);
  end
end`,
	`nested.operation := begin
** S **
  i<4:0>, j<3:0>, k: integer,
  nested.execute := begin
    input (i, j);
    repeat
      exit_when (i = 0);
      i <- i - 1;
      repeat
        if j > 2
        then
          exit_when (1);
        else
          j <- j + 3;
        end_if;
        k <- k + 1;
      end_repeat;
      j <- j - 1;
      if not (i xor j) then k <- k * 3; end_if;
    end_repeat;
    output (i, j, k, -k, not k);
  end
end`,
	`loose.operation := begin
** S **
  x<7:0>,
  loose.execute := begin
    input (x);
    ghost <- x + phantom;
    x <- x - 300;
    output (ghost, x, missing());
  end
end`,
	`noroutine.operation := begin
** S **
  x: integer
end`,
}

// goldenCorpus returns every catalog description followed by the extras.
func goldenCorpus(t *testing.T) []*isps.Description {
	t.Helper()
	var srcs []string
	for _, e := range machines.All() {
		srcs = append(srcs, e.Source)
	}
	for _, e := range langops.All() {
		srcs = append(srcs, e.Source)
	}
	srcs = append(srcs, goldenExtras...)
	descs := make([]*isps.Description, len(srcs))
	for i, src := range srcs {
		d, err := isps.Parse(src)
		if err != nil {
			t.Fatalf("corpus entry %d: %v", i, err)
		}
		descs[i] = d
	}
	return descs
}

// goldenRounds is the number of seeded runs recorded per description.
const goldenRounds = 24

// goldenTranscript runs every corpus description on seeded inputs,
// memory images and preloaded registers, some rounds with a tight step
// budget or one operand short, and renders one line per run.
func goldenTranscript(t *testing.T) []byte {
	var buf bytes.Buffer
	for i, d := range goldenCorpus(t) {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		nIn := len(d.Inputs())
		names := []string{"zz"}
		for _, r := range d.Regs() {
			names = append(names, r.Name)
		}
		for _, f := range d.Funcs() {
			names = append(names, f.Name)
		}
		for r := 0; r < goldenRounds; r++ {
			in := make([]uint64, nIn)
			for k := range in {
				switch {
				case r%6 == 0:
					in[k] = uint64(rng.Intn(5))
				case rng.Intn(4) == 0:
					in[k] = rng.Uint64()
				default:
					in[k] = uint64(rng.Intn(40))
				}
			}
			if r == goldenRounds-1 && nIn > 0 {
				in = in[:nIn-1]
			}
			st := NewState()
			for a := uint64(0); a < 64; a++ {
				st.Mem[a] = byte(rng.Intn(4))
			}
			st.Mem[rng.Uint64()%1000] = byte(rng.Intn(256))
			if r%3 == 1 {
				for _, n := range names {
					if rng.Intn(2) == 0 {
						st.Regs[n] = uint64(rng.Intn(300))
					}
				}
			}
			limit := 4000
			if r%4 == 3 {
				limit = 40
			}
			before := st.Clone()
			res, err := Run(d, in, st, limit)
			fmt.Fprintf(&buf, "%s #%d in=%v limit=%d: ", d.Name, r, in, limit)
			if err != nil {
				fmt.Fprintf(&buf, "err=%s %q", errClass(err), err.Error())
			} else {
				fmt.Fprintf(&buf, "steps=%d out=%v", res.Steps, res.Outputs)
			}
			fmt.Fprintf(&buf, " regs=%s mem=%s\n", regsString(st.Regs), memDiff(before.Mem, st.Mem))
		}
	}
	return buf.Bytes()
}

// errClass names the kind of a run failure by its message, so the
// transcript reads the same whichever error types carry it.
func errClass(err error) string {
	msg := err.Error()
	for _, c := range []struct{ sub, class string }{
		{"step limit", "step-limit"},
		{"call depth", "call-depth"},
		{"assertion failed", "assert"},
		{"exit_when escaped", "exit-escape"},
		{"exit_when outside", "exit-outside"},
		{"exhausted", "input"},
		{"division by zero", "div-zero"},
	} {
		if strings.Contains(msg, c.sub) {
			return c.class
		}
	}
	return "other"
}

func regsString(regs map[string]uint64) string {
	keys := make([]string, 0, len(regs))
	for k := range regs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s:%d", k, regs[k])
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// memDiff lists the addresses whose byte is new or changed, with the
// presence of a key in the final map counting even for a zero byte.
func memDiff(before, after map[uint64]byte) string {
	var addrs []uint64
	for a, v := range after {
		if old, ok := before[a]; !ok || old != v {
			addrs = append(addrs, a)
		}
	}
	for a := range before {
		if _, ok := after[a]; !ok {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	parts := make([]string, len(addrs))
	for i, a := range addrs {
		if v, ok := after[a]; ok {
			parts[i] = fmt.Sprintf("%d:%d", a, v)
		} else {
			parts[i] = fmt.Sprintf("%d:gone", a)
		}
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// TestGolden requires the interpreter to reproduce the recorded
// transcript byte for byte.
func TestGolden(t *testing.T) {
	got := goldenTranscript(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("transcript differs at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("transcript has %d lines, want %d", len(gl), len(wl))
}
