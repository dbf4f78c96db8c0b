package interp

import (
	"fmt"
	"testing"

	"extra/internal/isps"
)

// TestProgramCacheBounded compiles more distinct descriptions than the
// program cache holds: the cache must stay within its bound, and every
// run, including reruns of descriptions whose programs were dropped, must
// still compute the right result.
func TestProgramCacheBounded(t *testing.T) {
	const bound = cacheShards * cacheShardCap
	n := bound + bound/4
	descs := make([]*isps.Description, n)
	check := func(i int) {
		res, err := Run(descs[i], []uint64{7}, NewState(), 0)
		if err != nil {
			t.Fatalf("description %d: %v", i, err)
		}
		if want := uint64(7 + i); len(res.Outputs) != 1 || res.Outputs[0] != want {
			t.Fatalf("description %d: outputs %v, want [%d]", i, res.Outputs, want)
		}
	}
	for i := range descs {
		descs[i] = isps.MustParse(fmt.Sprintf(`c%d.operation := begin
** S **
  x: integer,
  c%d.execute := begin
    input (x);
    output (x + %d);
  end
end`, i, i, i))
		check(i)
		if got := cachedPrograms(); got > bound {
			t.Fatalf("after %d descriptions the cache holds %d programs, bound %d", i+1, got, bound)
		}
	}
	for i := 0; i < n; i += 97 {
		check(i)
	}
}

// TestProgramSharedByDigest: structurally equal descriptions share one
// compiled program, and a description mutated in place gets a new one.
func TestProgramSharedByDigest(t *testing.T) {
	src := `p.operation := begin
** S **
  x<7:0>,
  p.execute := begin
    input (x);
    x <- x + 1;
    output (x);
  end
end`
	a, b := isps.MustParse(src), isps.MustParse(src)
	if programFor(a) != programFor(b) {
		t.Error("equal descriptions compiled twice")
	}
	res, err := Run(b, []uint64{255}, NewState(), 0)
	if err != nil || res.Outputs[0] != 0 {
		t.Fatalf("before mutation: %v, %v", res, err)
	}
	b.Routine().Body.Stmts[1].(*isps.AssignStmt).RHS.(*isps.Bin).Y.(*isps.Num).Val = 2
	res, err = Run(b, []uint64{255}, NewState(), 0)
	if err != nil || res.Outputs[0] != 1 {
		t.Fatalf("after mutation: outputs %v, err %v; want [1]", res, err)
	}
}

// TestProgramCacheConcurrent runs shared and per-goroutine descriptions
// from several goroutines at once; under -race it checks the cache and
// the shared programs for data races.
func TestProgramCacheConcurrent(t *testing.T) {
	const workers, each = 4, 50
	shared := isps.MustParse(`s.operation := begin
** S **
  x<7:0>,
  s.execute := begin
    input (x);
    repeat
      exit_when (x = 0);
      x <- x - 1;
      Mb[x] <- x;
    end_repeat;
    output (x);
  end
end`)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < each; i++ {
				own := isps.MustParse(fmt.Sprintf(`w%d.operation := begin ** S ** x: integer, w%d.execute := begin input (x); output (x * %d); end end`, w, w, i))
				st := NewState()
				res, err := Run(shared, []uint64{uint64(i)}, st, 0)
				if err == nil && (res.Outputs[0] != 0 || len(st.Mem) != i) {
					err = fmt.Errorf("shared run %d: outputs %v, %d bytes written", i, res.Outputs, len(st.Mem))
				}
				if err == nil {
					res, err = Run(own, []uint64{3}, NewState(), 0)
					if err == nil && res.Outputs[0] != uint64(3*i) {
						err = fmt.Errorf("worker %d run %d: outputs %v", w, i, res.Outputs)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// cachedPrograms counts the programs the cache holds.
func cachedPrograms() int {
	n := 0
	for i := range programs {
		sh := &programs[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}
