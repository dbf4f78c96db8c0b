package interp

import (
	"bufio"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"extra/internal/isps"
	"extra/internal/langops"
	"extra/internal/machines"
)

// fuzzStepLimit is FuzzInterp's step budget: past the first cancellation
// poll (step 1024), so both budget exhaustion and cancellation occur.
const fuzzStepLimit = 3000

// FuzzInterp runs arbitrary parsed descriptions, seeded with the front
// end's fuzz corpus and the catalog, on a cancelled context with a small
// step budget. Whatever parses, valid or not, must run without panicking,
// stay within the budget, fail only with a typed error, and behave the
// same when run again from its cached program.
func FuzzInterp(f *testing.F) {
	for _, src := range ispsFuzzSeeds(f) {
		f.Add(src, uint64(0))
	}
	for _, e := range machines.All() {
		f.Add(e.Source, uint64(1))
	}
	for _, e := range langops.All() {
		f.Add(e.Source, uint64(2))
	}
	for _, src := range goldenExtras {
		f.Add(src, uint64(3))
	}
	f.Fuzz(func(t *testing.T, src string, seed uint64) {
		d, err := isps.Parse(src)
		if err != nil {
			return
		}
		_ = isps.Validate(d) // the interpreter must not depend on it
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		run := func() (*Result, error) {
			rng := rand.New(rand.NewSource(int64(seed)))
			in := make([]uint64, len(d.Inputs()))
			for i := range in {
				in[i] = uint64(rng.Intn(64))
			}
			st := NewState()
			for a := uint64(0); a < 16; a++ {
				st.Mem[a] = byte(rng.Intn(4))
			}
			return RunCtx(ctx, d, in, st, fuzzStepLimit)
		}
		res, err := run()
		if err == nil && res.Steps > fuzzStepLimit {
			t.Fatalf("ran %d steps over a budget of %d", res.Steps, fuzzStepLimit)
		}
		if err != nil && !typedRunError(err) {
			t.Fatalf("untyped error %T: %v", err, err)
		}
		res2, err2 := run()
		if (err == nil) != (err2 == nil) || (err != nil && err.Error() != err2.Error()) ||
			(err == nil && (res.Steps != res2.Steps || !slices.Equal(res.Outputs, res2.Outputs))) {
			t.Fatalf("rerun differs: %v, %v then %v, %v", res, err, res2, err2)
		}
	})
}

func typedRunError(err error) bool {
	var ae *AssertError
	if errors.As(err, &ae) {
		return true
	}
	for _, s := range []error{ErrStepLimit, ErrCallDepth, ErrExit, ErrInputExhausted,
		ErrDivideByZero, ErrMalformed, context.Canceled} {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// ispsFuzzSeeds reads the string inputs of the isps package's fuzz corpus
// (testdata/fuzz/<target>/<file>, "go test fuzz v1" format).
func ispsFuzzSeeds(f *testing.F) []string {
	files, err := filepath.Glob(filepath.Join("..", "isps", "testdata", "fuzz", "*", "*"))
	if err != nil {
		f.Fatal(err)
	}
	var srcs []string
	for _, name := range files {
		fh, err := os.Open(name)
		if err != nil {
			f.Fatal(err)
		}
		sc := bufio.NewScanner(fh)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "string(") || !strings.HasSuffix(line, ")") {
				continue
			}
			if s, err := strconv.Unquote(line[len("string(") : len(line)-1]); err == nil {
				srcs = append(srcs, s)
			}
		}
		fh.Close()
	}
	return srcs
}
