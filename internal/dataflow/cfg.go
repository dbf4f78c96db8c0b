package dataflow

import (
	"fmt"

	"extra/internal/isps"
)

// Graph is a control-flow graph over a routine body. Each simple statement
// and each compound statement's test becomes one node; every repeat loop
// gets a virtual head node carrying its back edge.
type Graph struct {
	Nodes []*GNode
	// Entry is the index of the first node executed; Exit the virtual node
	// representing falling off the end of the routine.
	Entry, Exit int

	desc   *isps.Description
	byPath map[string]int
}

// GNode is one node of the control-flow graph.
type GNode struct {
	Index int
	// Stmt is the statement (or the if/repeat owning the test); nil for
	// the virtual exit node.
	Stmt isps.Stmt
	// Path is the statement's path relative to the routine body.
	Path isps.Path
	// Succs are the indices of the possible successor nodes.
	Succs []int
	// ExitCont, for a repeat head node, is the node control reaches after
	// the loop terminates; -1 otherwise.
	ExitCont int
	// Cont is the node control reaches once this statement (including any
	// branches or loop it owns) has completed; -1 for the exit node.
	Cont int
	// Eff summarizes what evaluating this node reads/writes. For an if
	// node this covers only the condition; for a repeat head it is empty.
	Eff Effects
	// virtual marks repeat-head nodes (their Stmt is the RepeatStmt, but
	// the node itself evaluates nothing).
	virtual bool
}

// BuildCFG constructs the control-flow graph of a routine body of d; d
// resolves the callees whose effects calls contribute.
func BuildCFG(body *isps.Block, d *isps.Description) *Graph {
	g := &Graph{desc: d, byPath: map[string]int{}}
	exit := g.newNode(nil, nil)
	g.Exit = exit.Index
	g.Entry = g.buildBlock(body, isps.Path{}, exit.Index, nil)
	return g
}

func (g *Graph) newNode(stmt isps.Stmt, path isps.Path) *GNode {
	n := &GNode{Index: len(g.Nodes), Stmt: stmt, Path: path, ExitCont: -1, Cont: -1}
	g.Nodes = append(g.Nodes, n)
	if path != nil {
		g.byPath[path.String()] = n.Index
	}
	return n
}

// buildBlock wires the statements of blk so the last one continues to next;
// it returns the entry node index (next when the block is empty).
// loopExits is the stack of continuation nodes of enclosing repeat loops.
func (g *Graph) buildBlock(blk *isps.Block, path isps.Path, next int, loopExits []int) int {
	cur := next
	for i := len(blk.Stmts) - 1; i >= 0; i-- {
		cur = g.buildStmt(blk.Stmts[i], path.Child(i), cur, loopExits)
	}
	return cur
}

func (g *Graph) buildStmt(s isps.Stmt, path isps.Path, next int, loopExits []int) int {
	switch st := s.(type) {
	case *isps.IfStmt:
		n := g.newNode(s, path)
		n.Cont = next
		n.Eff = NodeEffects(st.Cond, g.desc)
		thenEntry := g.buildBlock(st.Then, path.Child(1), next, loopExits)
		elseEntry := g.buildBlock(st.Else, path.Child(2), next, loopExits)
		n.Succs = []int{thenEntry, elseEntry}
		return n.Index
	case *isps.RepeatStmt:
		head := g.newNode(s, path)
		head.virtual = true
		head.ExitCont = next
		head.Cont = next
		bodyEntry := g.buildBlock(st.Body, path.Child(0), head.Index, append(loopExits, next))
		head.Succs = []int{bodyEntry}
		return head.Index
	case *isps.ExitWhenStmt:
		n := g.newNode(s, path)
		n.Cont = next
		n.Eff = NodeEffects(st.Cond, g.desc)
		if len(loopExits) == 0 {
			// Validate rejects this; degrade to a fallthrough.
			n.Succs = []int{next}
			return n.Index
		}
		n.Succs = []int{next, loopExits[len(loopExits)-1]}
		return n.Index
	default:
		n := g.newNode(s, path)
		n.Cont = next
		n.Eff = NodeEffects(s, g.desc)
		n.Succs = []int{next}
		return n.Index
	}
}

// NodeAt returns the graph node for the statement at the given body-relative
// path.
func (g *Graph) NodeAt(path isps.Path) (*GNode, error) {
	i, ok := g.byPath[path.String()]
	if !ok {
		return nil, fmt.Errorf("dataflow: no CFG node at path %s", path)
	}
	return g.Nodes[i], nil
}

// Liveness holds the result of backward live-variable analysis over a CFG.
type Liveness struct {
	g       *Graph
	liveIn  []Set
	liveOut []Set
}

// Liveness runs live-variable analysis to a fixpoint.
func (g *Graph) Liveness() *Liveness {
	l := &Liveness{
		g:       g,
		liveIn:  make([]Set, len(g.Nodes)),
		liveOut: make([]Set, len(g.Nodes)),
	}
	changed := true
	for changed {
		changed = false
		for i := len(g.Nodes) - 1; i >= 0; i-- {
			n := g.Nodes[i]
			out, in := &l.liveOut[i], &l.liveIn[i]
			for _, s := range n.Succs {
				for _, k := range l.liveIn[s] {
					if out.add(k) {
						changed = true
					}
				}
			}
			for _, k := range n.Eff.MayUse {
				if in.add(k) {
					changed = true
				}
			}
			for _, k := range *out {
				if !n.Eff.MustDef.Has(k) && in.add(k) {
					changed = true
				}
			}
		}
	}
	return l
}

// LiveAfter reports whether name may be read after the statement at the
// given body-relative path executes (along any path).
func (l *Liveness) LiveAfter(path isps.Path, name string) (bool, error) {
	n, err := l.g.NodeAt(path)
	if err != nil {
		return false, err
	}
	return l.liveOut[n.Index].Has(name), nil
}

// LiveAtStmtExit reports whether name may be read once the statement at the
// given body-relative path — including any branches or loop body it owns —
// has completed.
func (l *Liveness) LiveAtStmtExit(path isps.Path, name string) (bool, error) {
	n, err := l.g.NodeAt(path)
	if err != nil {
		return false, err
	}
	if n.Cont < 0 {
		return false, nil
	}
	return l.liveIn[n.Cont].Has(name), nil
}

// LiveAtLoopExit reports whether name may be read once the repeat loop at
// the given body-relative path has terminated.
func (l *Liveness) LiveAtLoopExit(loopPath isps.Path, name string) (bool, error) {
	n, err := l.g.NodeAt(loopPath)
	if err != nil {
		return false, err
	}
	if n.ExitCont < 0 {
		return false, fmt.Errorf("dataflow: node at %s is not a repeat loop", loopPath)
	}
	return l.liveIn[n.ExitCont].Has(name), nil
}
