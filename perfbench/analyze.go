package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"

	"extra/internal/core"
	"extra/internal/obs"
	"extra/internal/proofs"
)

// validateRounds is the differential validation count per analysis, the
// count `extra analyze` validates a binding on.
const validateRounds = 300

// analyzeSpec: one catalog analysis (a seeded draw from Table 2 plus the
// extensions) run to common form, then its binding validated on 300
// states. Single caller.
var analyzeSpec = spec{
	setup:         setupAnalyze,
	check:         checkAnalyze,
	deterministic: []string{"proof_steps", "transform.applies_per_op", "interp.runs"},
}

func catalog() []*proofs.Analysis {
	return append(proofs.Table2(), proofs.Extensions()...)
}

type analyzeWorkload struct {
	tr      *obs.Tracer
	catalog []*proofs.Analysis
	// steps is the step count each analysis reached in the set-up pass;
	// every later run of the same script must reach the same count.
	steps map[*proofs.Analysis]int
}

func setupAnalyze(seed int64, tr *obs.Tracer) (workload, error) {
	w := &analyzeWorkload{tr: tr, catalog: catalog(), steps: map[*proofs.Analysis]int{}}
	// First pass: parses and interns every description the catalog uses.
	for _, a := range w.catalog {
		_, b, err := a.RunCtx(context.Background(), nil)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", a.Instruction, a.Operator, err)
		}
		w.steps[a] = b.Steps
	}
	return w, nil
}

func (w *analyzeWorkload) op(c *caller) (string, error) {
	a := w.catalog[c.draw("catalog", len(w.catalog))]
	sp := c.spans.start("proofs.run")
	_, b, err := a.RunCtx(context.Background(), w.tr)
	c.spans.end(sp)
	if err != nil {
		return "", fmt.Errorf("analyze %s/%s: %v", a.Instruction, a.Operator, err)
	}
	if b.Steps != w.steps[a] {
		return "", fmt.Errorf("analyze %s/%s: %d steps, the set-up pass took %d", a.Instruction, a.Operator, b.Steps, w.steps[a])
	}
	sp = c.spans.start("interp.validate")
	n, err := core.ValidateBindingCtx(context.Background(), b, a.Gen, validateRounds, c.rng.Int63(), w.tr)
	c.spans.end(sp)
	if err != nil {
		return "", fmt.Errorf("validate %s/%s: %v", a.Instruction, a.Operator, err)
	}
	if n == 0 {
		return "", fmt.Errorf("validate %s/%s: no state checked", a.Instruction, a.Operator)
	}
	return "", nil
}

func (w *analyzeWorkload) close() error { return nil }

// checkAnalyze is one pass over the whole catalog in catalog order, with
// validation seeds drawn from seed.
func checkAnalyze(seed int64) (checkResult, error) {
	cat := catalog()
	rng := rand.New(rand.NewSource(seed))
	before := totals(obs.Default())
	res := checkResult{ops: len(cat)}
	steps := 0
	var mallocs uint64
	var ms runtime.MemStats
	for _, a := range cat {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		_, b, err := a.RunCtx(context.Background(), nil)
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - m0
		if err != nil {
			res.failures = append(res.failures, fmt.Sprintf("analyze %s/%s: %v", a.Instruction, a.Operator, err))
			continue
		}
		steps += b.Steps
		n, err := core.ValidateBinding(b, a.Gen, validateRounds, rng.Int63())
		if err != nil || n == 0 {
			res.failures = append(res.failures, fmt.Sprintf("validate %s/%s: %d checked, %v", a.Instruction, a.Operator, n, err))
		}
	}
	res.counts = layerCounts(totals(obs.Default()).minus(before), len(cat))
	res.counts["proof_steps"] = float64(steps)
	res.counts["core.allocs_per_analysis"] = float64(mallocs) / float64(len(cat))
	return res, nil
}
