package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"

	"extra/internal/core"
	"extra/internal/discover"
	"extra/internal/fault"
	"extra/internal/obs"
)

// The search workload's fixed ladder: a depth-2 rung, then a depth-4 rung
// with four times the state budget. Minted pairs need three steps, so
// every one of them climbs to the second rung; unproven catalog pairs
// spend both rungs' budgets before their verdict.
const (
	searchDepth  = 2
	searchBudget = 150
	searchRungs  = 2
	// mixSlots: one operation in every mixSlots searches an unproven
	// catalog pair, the others a minted, known-equivalent pair. The ratio
	// gives each kind half of the search time, so budget exhaustion and
	// solving weigh alike in throughput. Measured once over every candidate
	// at this ladder (2-vCPU Xeon, go1.24): an unproven pair takes 55 ms on
	// average and a minted pair 5.4 ms, so ten minted searches cost what
	// one unproven search costs. A real discover sweep is no guide here: at
	// this ladder it solves none of its candidates.
	mixSlots = 11
	// searchCheckOps is the size of the fixed seeded check set: two passes
	// of the mix, so it always holds two unproven pairs.
	searchCheckOps = 2 * mixSlots
	// oracleRounds validates every binding the search closes.
	oracleRounds = 50
)

// searchSpec: one candidate pair searched to a verdict by core.AutoAnalyze.
// Single caller; the frontier pool is at most nproc wide.
var searchSpec = spec{
	setup:         setupSearch,
	check:         checkSearch,
	deterministic: []string{"search_solved", "auto.states_explored", "transform.applies_per_op"},
}

type searchWorkload struct {
	tr       *obs.Tracer
	unproven []discover.Candidate
	minted   []mintedPair
}

func setupSearch(seed int64, tr *obs.Tracer) (workload, error) {
	w := &searchWorkload{tr: tr, unproven: discover.Enumerate(nil, nil)}
	if len(w.unproven) == 0 {
		return nil, fmt.Errorf("discover.Enumerate found no unproven pair")
	}
	w.minted = mintPool(rand.New(rand.NewSource(seed)))
	// First pass: parse and intern every corpus description once.
	for _, c := range w.unproven {
		if _, _, err := c.Descs(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// candidate is one search operation's input: an unproven catalog pair, or
// a minted pair that is equivalent by construction and must be solved.
type candidate struct {
	cand   discover.Candidate
	minted *mintedPair
}

func (w *searchWorkload) next(c *caller) candidate {
	if c.draw("mix", mixSlots) != 0 {
		m := &w.minted[c.draw("minted", len(w.minted))]
		return candidate{cand: m.cand, minted: m}
	}
	return candidate{cand: w.unproven[c.draw("unproven", len(w.unproven))]}
}

func (w *searchWorkload) op(c *caller) (string, error) {
	_, err := w.search(c, w.next(c))
	return "", err
}

// search runs one candidate to a verdict and checks it: a minted pair must
// be solved, and every solved pair's binding must pass validation.
func (w *searchWorkload) search(c *caller, cand candidate) (solved bool, err error) {
	sp := c.spans.start("isps.descs")
	op, ins, err := cand.cand.Descs()
	c.spans.end(sp)
	if err != nil {
		return false, err
	}
	sp = c.spans.start("core.auto")
	b, err := core.AutoAnalyze(context.Background(), core.AutoSpec{
		Machine: cand.cand.Machine, Instruction: cand.cand.Instruction,
		Language: cand.cand.Language, Operation: cand.cand.Operation,
		Op: op, Ins: ins,
		Ladder:  core.AutoLadder(searchDepth, searchBudget, searchRungs),
		Workers: runtime.NumCPU(),
		Tracer:  w.tr,
	})
	c.spans.end(sp)
	var budget *fault.BudgetError
	switch {
	case err == nil:
	case errors.As(err, &budget) && cand.minted == nil:
		return false, nil // an unproven pair left unproven is a verdict
	case cand.minted != nil:
		return false, fmt.Errorf("minted pair %s left unsolved: %v", cand.cand.Pair(), err)
	default:
		return false, fmt.Errorf("search %s: %v", cand.cand.Pair(), err)
	}
	gen := genericGen(b)
	if cand.minted != nil {
		gen = cand.minted.gen(b)
	}
	sp = c.spans.start("bench.oracle")
	n, err := core.ValidateBinding(b, gen, oracleRounds, c.rng.Int63())
	c.spans.end(sp)
	if err != nil || n == 0 {
		return true, fmt.Errorf("solved pair %s fails validation (%d checked): %v", cand.cand.Pair(), n, err)
	}
	return true, nil
}

func (w *searchWorkload) close() error { return nil }

// checkSearch searches the first searchCheckOps candidates of seed's
// stream.
func checkSearch(seed int64) (checkResult, error) {
	wl, err := setupSearch(seed, nil)
	if err != nil {
		return checkResult{}, err
	}
	w := wl.(*searchWorkload)
	c := &caller{rng: rand.New(rand.NewSource(seed))}
	res := checkResult{ops: searchCheckOps}
	before := totals(obs.Default())
	solved := 0
	for i := 0; i < searchCheckOps; i++ {
		ok, err := w.search(c, w.next(c))
		if err != nil {
			res.failures = append(res.failures, err.Error())
		}
		if ok {
			solved++
		}
	}
	res.counts = layerCounts(totals(obs.Default()).minus(before), searchCheckOps)
	res.counts["search_solved"] = float64(solved)
	res.counts["auto.solved_ratio"] = float64(solved) / searchCheckOps
	return res, nil
}

// mintedPair is an operator/instruction pair that differ only by surface
// rewrites: renamed variables and descriptions, a commuted comparison, <=
// written for =, and reordered independent increments.
type mintedPair struct {
	cand discover.Candidate
	// opVars are the operator's count, source and destination names.
	opVars [3]string
}

const mintTemplate = `NAME.KIND := begin
** S **
  DECLS,
  NAME.execute := begin
    input (INPUTS);
    repeat
      exit_when (EXIT);
      BODY
      CNT <- CNT - 1;
    end_repeat;
  end
end`

// The loop exits on a zero count in any of four spellings: the engine's
// transformations relate all four. (A spelling such as "CNT < 1" is not a
// surface rewrite of these for the engine: no transformation relates it to
// the others, so pairs using it would not be known-provable.)
var mintExits = []string{"CNT <= 0", "0 >= CNT", "CNT = 0", "0 = CNT"}

var mintBodies = map[string][]string{
	"copy":  {"Mb[DST] <- Mb[SRC];\n      SRC <- SRC + 1;\n      DST <- DST + 1;", "Mb[DST] <- Mb[SRC];\n      DST <- DST + 1;\n      SRC <- SRC + 1;"},
	"clear": {"Mb[SRC] <- 0;\n      SRC <- SRC + 1;"},
}

// mintPool mints one pair for every combination of body, increment order
// and exit spelling on each side, with seeded names. Every seed's pool thus
// has the same composition, and like the unproven catalog pairs each pair
// recurs several times per run: the descriptions the program interns and
// the series its registry keeps per description name stop growing early in
// the window, so peak memory measures a steady state, not run length.
func mintPool(rng *rand.Rand) []mintedPair {
	var pool []mintedPair
	for _, body := range []string{"copy", "clear"} {
		forms := mintBodies[body]
		for _, opExit := range mintExits {
			for _, insExit := range mintExits {
				for _, opForm := range forms {
					for _, insForm := range forms {
						names := mintNames(rng, 8)
						opVars := [3]string{names[2], names[3], names[4]}
						pool = append(pool, mintedPair{opVars: opVars, cand: discover.Candidate{
							Machine: "minted", Instruction: names[1], Language: "minted", Operation: body, Operator: names[0],
							OpSrc:  mintSource("operation", names[0], body, opExit, opForm, opVars),
							InsSrc: mintSource("instruction", names[1], body, insExit, insForm, [3]string{names[5], names[6], names[7]}),
						}})
					}
				}
			}
		}
	}
	return pool
}

func mintSource(kind, name, body, exit, form string, vars [3]string) string {
	inputs := vars[:]
	if body == "clear" {
		inputs = vars[:2]
	}
	decls := make([]string, len(inputs))
	for i, v := range inputs {
		decls[i] = v + ": integer"
	}
	src := strings.NewReplacer(
		"NAME", name, "KIND", kind,
		"DECLS", strings.Join(decls, ", "),
		"INPUTS", strings.Join(inputs, ", "),
		"EXIT", exit, "BODY", form,
	).Replace(mintTemplate)
	return strings.NewReplacer("CNT", vars[0], "SRC", vars[1], "DST", vars[2]).Replace(src)
}

// mintNames returns n distinct identifiers. They start with "q" followed
// by consonants, so none can collide with an ISPS keyword.
func mintNames(rng *rand.Rand, n int) []string {
	const letters = "bcdfghjklmnpstvwxz"
	seen := map[string]bool{}
	var out []string
	for len(out) < n {
		b := []byte{'q', 0, 0, 0, 0}
		for i := 1; i < len(b); i++ {
			b[i] = letters[rng.Intn(len(letters))]
		}
		if s := string(b); !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// gen builds validation inputs for a minted pair's binding: a count up to
// 16, a source block and a disjoint destination block, by operand name.
func (m *mintedPair) gen(b *core.Binding) core.InputGen {
	return func(rng *rand.Rand) ([]uint64, map[uint64]byte) {
		n := uint64(rng.Intn(17))
		src := uint64(256 + rng.Intn(32))
		dst := uint64(1024 + rng.Intn(32))
		vals := map[string]uint64{m.opVars[0]: n, m.opVars[1]: src, m.opVars[2]: dst}
		mem := map[uint64]byte{}
		for i := uint64(0); i < 48; i++ {
			mem[src+i] = byte(rng.Intn(256))
			mem[dst+i] = byte(rng.Intn(256))
		}
		in := make([]uint64, len(b.OpInputs))
		for i, name := range b.OpInputs {
			in[i] = vals[name]
		}
		return in, mem
	}
}

// genericGen builds validation inputs for a binding the search closed on
// an unproven catalog pair: small operand values and a random low memory
// block, so loops over them stay short.
func genericGen(b *core.Binding) core.InputGen {
	return func(rng *rand.Rand) ([]uint64, map[uint64]byte) {
		in := make([]uint64, len(b.OpInputs))
		for i := range in {
			in[i] = uint64(rng.Intn(16))
		}
		mem := map[uint64]byte{}
		for a := uint64(0); a < 64; a++ {
			mem[a] = byte(rng.Intn(4))
		}
		return in, mem
	}
}
