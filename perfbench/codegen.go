package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"extra/internal/codegen"
	"extra/internal/hll"
	"extra/internal/obs"
	"extra/internal/sim"
	"extra/internal/synth"
)

const (
	// codegenCheckOps is the size of the fixed seeded program set.
	codegenCheckOps = 48
	// simMaxSteps bounds one simulated run; the largest program (a
	// decomposed 1 KiB compare) needs far fewer.
	simMaxSteps = 2_000_000
)

// Memory layout of the generated programs: the operand block at 1024, a
// second block (move destination, compare right-hand side) at 2048, the
// translate table at 4096; a tokenizer's text (up to 4 KiB) at 1024 and its
// output at 8192. Nothing a program uses collides.
const (
	blockA   = 1024
	blockB   = 2048
	tableAt  = 4096
	tokensAt = 8192
)

// tokenizeScale stretches a tokenizer's text to this many times the drawn
// block length. The longest texts (about 4 KiB, a few milliseconds each)
// then form the latency tail, so a scheduling delay of a few milliseconds
// moves latency_p99_ms by a fraction rather than a multiple, as it did when
// the tail was made of one-millisecond programs.
const tokenizeScale = 4

// codegenSpec: one seeded HLL program compiled with every mechanism on,
// run on the target simulator, and compared with the IR reference. Single
// caller.
var codegenSpec = spec{
	setup:         setupCodegen,
	check:         checkCodegen,
	deterministic: []string{"gen_cycles", "gen_code_bytes"},
}

type codegenWorkload struct {
	targets map[string]codegen.Target
}

func setupCodegen(seed int64, tr *obs.Tracer) (workload, error) {
	if _, err := codegen.Bindings(); err != nil {
		return nil, err
	}
	w := &codegenWorkload{targets: map[string]codegen.Target{}}
	for _, name := range codegen.Targets() {
		t, err := codegen.For(name)
		if err != nil {
			return nil, err
		}
		w.targets[name] = t
	}
	// First pass: one program per operator class and target. Its errors
	// are left to the measured operations, which count them as failures.
	rng := rand.New(rand.NewSource(seed))
	c := &caller{rng: rng}
	for _, class := range genClasses {
		for _, target := range codegen.Targets() {
			_, _ = w.compileRun(c, genProgram(rng, class, 16), target)
		}
	}
	return w, nil
}

// genClasses are the program shapes: one string operator each, or the
// tokenizer's cascaded index/move loop.
var genClasses = []string{"index", "move", "compare", "clear", "xlate", "tokenize"}

// genLength draws a block length: the empty and tiny lengths, a small one,
// the 370's 256-byte limit and its neighbours, and about 1 KiB. Short
// lengths take the decomposed or crossover path, long ones the chunked
// path.
func genLength(rng *rand.Rand) int {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return 2
	case 3:
		return 3 + rng.Intn(62)
	case 4:
		return 255
	case 5:
		return 256
	case 6:
		return 257
	default:
		return 960 + rng.Intn(65)
	}
}

type genResult struct {
	cycles uint64
	code   []sim.Instr
}

func (w *codegenWorkload) op(c *caller) (string, error) {
	target := codegen.Targets()[c.rng.Intn(len(codegen.Targets()))]
	sp := c.spans.start("bench.gen")
	src := genProgram(c.rng, genClasses[c.rng.Intn(len(genClasses))], genLength(c.rng))
	c.spans.end(sp)
	r, err := w.compileRun(c, src, target)
	c.cycles += r.cycles
	return "", err
}

// compileRun parses, compiles and simulates one program and checks the
// machine's output and memory against the IR reference run.
func (w *codegenWorkload) compileRun(c *caller, src, target string) (genResult, error) {
	t := w.targets[target]
	sp := c.spans.start("hll.parse")
	prog, err := hll.Parse(src)
	c.spans.end(sp)
	if err != nil {
		return genResult{}, fmt.Errorf("parse: %v\n%s", err, src)
	}
	sp = c.spans.start("ir.ref")
	ref, err := prog.RefRun()
	c.spans.end(sp)
	if err != nil {
		return genResult{}, fmt.Errorf("reference run: %v", err)
	}
	sp = c.spans.start("codegen.compile")
	p, err := t.Compile(prog, codegen.AllOn())
	c.spans.end(sp)
	if err != nil {
		return genResult{}, fmt.Errorf("%s compile: %v", target, err)
	}
	sp = c.spans.start("sim.run")
	m, err := codegen.Run(t, p, simMaxSteps)
	c.spans.end(sp)
	if err != nil {
		return genResult{}, fmt.Errorf("%s run: %v", target, err)
	}
	r := genResult{cycles: m.Cycles, code: p.Code}
	sp = c.spans.start("bench.oracle")
	defer c.spans.end(sp)
	if len(m.Out) != len(ref.Out) {
		return r, fmt.Errorf("%s: out stream has %d values, reference %d\n%s", target, len(m.Out), len(ref.Out), src)
	}
	for i := range ref.Out {
		if m.Out[i] != ref.Out[i] {
			return r, fmt.Errorf("%s: out[%d] = %d, reference %d\n%s", target, i, m.Out[i], ref.Out[i], src)
		}
	}
	for addr, want := range ref.Mem {
		if got := m.LoadByte(addr); got != want {
			return r, fmt.Errorf("%s: mem[%d] = %#x, reference %#x\n%s", target, addr, got, want, src)
		}
	}
	return r, nil
}

func (w *codegenWorkload) close() error { return nil }

// checkCodegen compiles and runs the first codegenCheckOps programs of
// seed's stream and sums their simulated cycles and code sizes.
func checkCodegen(seed int64) (checkResult, error) {
	wl, err := setupCodegen(seed, nil)
	if err != nil {
		return checkResult{}, err
	}
	w := wl.(*codegenWorkload)
	rng := rand.New(rand.NewSource(seed))
	c := &caller{rng: rng}
	res := checkResult{ops: codegenCheckOps}
	before := totals(obs.Default())
	var cycles, bytes, instrs float64
	for i := 0; i < codegenCheckOps; i++ {
		target := codegen.Targets()[rng.Intn(len(codegen.Targets()))]
		src := genProgram(rng, genClasses[rng.Intn(len(genClasses))], genLength(rng))
		r, err := w.compileRun(c, src, target)
		if err != nil {
			res.failures = append(res.failures, err.Error())
			continue
		}
		cycles += float64(r.cycles)
		instrs += float64(len(r.code))
		bytes += float64(synth.CodeBytes(target, r.code))
	}
	res.counts = layerCounts(totals(obs.Default()).minus(before), codegenCheckOps)
	res.counts["gen_cycles"] = cycles
	res.counts["gen_code_bytes"] = bytes
	res.counts["codegen.static_instrs"] = instrs
	return res, nil
}

// genProgram writes the HLL source of one program of the given class over
// an n-byte block with seeded contents.
func genProgram(rng *rand.Rand, class string, n int) string {
	var b strings.Builder
	data := func(at int, bytes []byte) {
		if len(bytes) > 0 {
			fmt.Fprintf(&b, "data %d %s\n", at, strconv.Quote(string(bytes)))
		}
	}
	block := randomText(rng, n, "abcdefghijklmnopqrstuvwxyz0123456789")
	switch class {
	case "index":
		if n > 0 && rng.Intn(2) == 0 {
			block[rng.Intn(n)] = '!'
		}
		data(blockA, block)
		fmt.Fprintf(&b, "let i = index %d %d '!'\nprint i\n", blockA, n)
	case "move":
		data(blockA, block)
		fmt.Fprintf(&b, "move %d %d %d\n", blockB, blockA, n)
	case "compare":
		other := append([]byte(nil), block...)
		if n > 0 && rng.Intn(2) == 0 {
			other[rng.Intn(n)] ^= 0x20
		}
		data(blockA, block)
		data(blockB, other)
		fmt.Fprintf(&b, "let e = compare %d %d %d\nprint e\n", blockA, blockB, n)
	case "clear":
		data(blockA, block)
		fmt.Fprintf(&b, "clear %d %d\n", blockA, n)
	case "xlate":
		table := make([]byte, 256)
		for i, v := range rng.Perm(256) {
			table[i] = byte(v)
		}
		data(tableAt, table)
		data(blockA, block)
		fmt.Fprintf(&b, "xlate %d %d %d\n", blockA, tableAt, n)
	case "tokenize":
		// Comma-separated words of up to 12 letters: each pass finds the
		// next separator with index and moves the word out, so string
		// operations cascade through shared registers.
		n *= tokenizeScale
		text := randomText(rng, n, "abcdefghijklmnopqrstuvwxyz")
		for i := rng.Intn(13); i < n; i += 1 + rng.Intn(13) {
			text[i] = ','
		}
		data(blockA, text)
		fmt.Fprintf(&b, `let p = %d
let n = %d
let o = %d
label top
ifz n done
let i = index p n ','
ifz i last
let t = sub i 1
move o p t
print t
let o = add o t
let p = add p i
let n = sub n i
goto top
label last
move o p n
print n
label done
`, blockA, n, tokensAt)
	default:
		panic("unknown program class " + class)
	}
	return b.String()
}

func randomText(rng *rand.Rand, n int, alphabet string) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return out
}
