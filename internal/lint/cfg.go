package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the control-flow half of the lint framework: a per-function
// CFG builder the flow-sensitive analyzers (poolsafe, lockscope, goleak)
// share. It is deliberately small — blocks hold the statements and
// expressions of straight-line runs in evaluation order, edges follow Go's
// control constructs — and stdlib-only, like the rest of the framework.
//
// Supported control flow: if/else chains, for (all three clauses), range,
// switch and type switch (with fallthrough), select, labeled statements
// with labeled break/continue, goto, defer and return. Calls to panic,
// os.Exit, runtime.Goexit and log.Fatal* terminate their block; any other
// call is assumed to fall through.
//
// Function literals are boundaries: a FuncLit appearing inside a body is
// recorded as an opaque expression node of the enclosing block, and its own
// body gets its own CFG when the analyzer asks for one. Deferred calls do
// not run where they appear; the builder records them in order on the CFG
// and appends them to the Exit block's node list, which matches how the
// analyzers reason about them ("runs at every function exit").

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks in creation order; Blocks[0] is the entry block.
	Blocks []*Block
	// Entry is the function's entry block.
	Entry *Block
	// Exit is the single virtual exit block every return/fallthrough path
	// reaches. Deferred call expressions are appended to its node list in
	// reverse declaration order (LIFO, the execution order).
	Exit *Block
	// Defers lists the deferred calls in declaration order.
	Defers []*ast.DeferStmt
}

// Block is one basic block: a straight-line run of AST nodes with a single
// entry and (up to the successor fan-out) a single exit.
type Block struct {
	// Index is the block's position in CFG.Blocks.
	Index int
	// Kind names what created the block ("entry", "exit", "if.then",
	// "for.body", "select.case", …) so tests can assert structure.
	Kind string
	// Nodes holds the block's statements and controlling expressions
	// (an if condition, a switch tag, a range operand) in evaluation
	// order.
	Nodes []ast.Node
	// Succs and Preds are the block's edges.
	Succs []*Block
	Preds []*Block
}

// addSucc links b -> s once.
func (b *Block) addSucc(s *Block) {
	for _, x := range b.Succs {
		if x == s {
			return
		}
	}
	b.Succs = append(b.Succs, s)
	s.Preds = append(s.Preds, b)
}

// String renders the graph compactly for tests and debugging:
//
//	b0(entry) -> b1; b1(for.cond) -> b2 b3; …
func (c *CFG) String() string {
	var sb strings.Builder
	for i, b := range c.Blocks {
		if i > 0 {
			sb.WriteString("; ")
		}
		fmt.Fprintf(&sb, "b%d(%s) ->", b.Index, b.Kind)
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, " b%d", s.Index)
		}
	}
	return sb.String()
}

// Reachable returns the set of blocks reachable from the entry block.
func (c *CFG) Reachable() map[*Block]bool {
	seen := make(map[*Block]bool)
	var visit func(*Block)
	visit = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			visit(s)
		}
	}
	visit(c.Entry)
	return seen
}

// cfgBuilder carries the state of one build.
type cfgBuilder struct {
	cfg *CFG
	// cur is the block under construction; nil after a terminating
	// statement (return, goto, panic) until a new block starts.
	cur *Block
	// breakTargets / continueTargets map labels to jump targets; the empty
	// label is the innermost enclosing loop/switch/select.
	breakTargets    map[string]*Block
	continueTargets map[string]*Block
	// labels maps label names to the blocks goto jumps to; forward gotos
	// record fixups.
	labels     map[string]*Block
	gotoFixups map[string][]*Block
	// pendingLabel threads a loop/switch/select label from LabeledStmt to
	// the construct builder so labeled break/continue resolve.
	pendingLabel string
	// isTerminatingCall reports calls that never return (panic, os.Exit,
	// runtime.Goexit), ending their block toward exit.
	isTerminatingCall func(*ast.CallExpr) bool
}

// BuildCFG constructs the CFG of one function body. pass may be nil (for
// tests over bare syntax); when given, calls to panic, os.Exit and
// runtime.Goexit terminate their block.
func BuildCFG(body *ast.BlockStmt, pass *Pass) *CFG {
	var terminating func(*ast.CallExpr) bool
	if pass != nil {
		info := pass.Pkg.Info
		terminating = func(call *ast.CallExpr) bool {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if bi, ok := info.Uses[id].(*types.Builtin); ok && bi.Name() == "panic" {
					return true
				}
			}
			if fn := calleeFunc(info, call); fn != nil {
				switch fn.FullName() {
				case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
					return true
				}
			}
			return false
		}
	} else {
		terminating = func(call *ast.CallExpr) bool {
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			return ok && id.Name == "panic"
		}
	}

	b := &cfgBuilder{
		cfg:               &CFG{},
		breakTargets:      make(map[string]*Block),
		continueTargets:   make(map[string]*Block),
		labels:            make(map[string]*Block),
		gotoFixups:        make(map[string][]*Block),
		isTerminatingCall: terminating,
	}
	entry := b.newBlock("entry")
	b.cfg.Entry = entry
	b.cur = entry
	exit := b.newBlock("exit")
	b.cfg.Exit = exit
	b.stmtList(body.List)
	if b.cur != nil {
		b.cur.addSucc(exit)
	}
	// Unresolved forward gotos (label declared after use but never built —
	// malformed code) fall to exit so the graph stays connected.
	for _, srcs := range b.gotoFixups {
		for _, s := range srcs {
			s.addSucc(exit)
		}
	}
	// Deferred calls run at function exit, last-in first-out.
	for i := len(b.cfg.Defers) - 1; i >= 0; i-- {
		exit.Nodes = append(exit.Nodes, b.cfg.Defers[i].Call)
	}
	return b.cfg
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// startBlock finishes the current block (falling through to next) and makes
// next current.
func (b *cfgBuilder) startBlock(next *Block) {
	if b.cur != nil {
		b.cur.addSucc(next)
	}
	b.cur = next
}

// emit appends a node to the current block, creating an unreachable
// continuation block if control already terminated.
func (b *cfgBuilder) emit(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// stmt translates one statement into blocks and edges.
func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.emit(s.Cond)
		cond := b.cur
		then := b.newBlock("if.then")
		var after *Block
		cond.addSucc(then)
		b.cur = then
		b.stmtList(s.Body.List)
		thenEnd := b.cur
		var elseEnd *Block
		hasElse := s.Else != nil
		if hasElse {
			els := b.newBlock("if.else")
			cond.addSucc(els)
			b.cur = els
			b.stmt(s.Else)
			elseEnd = b.cur
		}
		after = b.newBlock("if.after")
		if thenEnd != nil {
			thenEnd.addSucc(after)
		}
		if hasElse {
			if elseEnd != nil {
				elseEnd.addSucc(after)
			}
		} else {
			cond.addSucc(after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock("for.head")
		b.startBlock(head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		body := b.newBlock("for.body")
		after := b.newBlock("for.after")
		head.addSucc(body)
		if s.Cond != nil {
			head.addSucc(after)
		}
		post := head
		if s.Post != nil {
			post = b.newBlock("for.post")
			post.Nodes = append(post.Nodes, s.Post)
			post.addSucc(head)
		}
		b.withLoop(after, post, func() {
			b.cur = body
			b.stmtList(s.Body.List)
			if b.cur != nil {
				b.cur.addSucc(post)
			}
		})
		// An infinite for with no break never reaches after; keep the
		// block (it may still be a break target) — unreferenced it just
		// stays predecessor-free.
		b.cur = after

	case *ast.RangeStmt:
		b.emit(s.X)
		head := b.newBlock("range.head")
		b.startBlock(head)
		if s.Key != nil {
			head.Nodes = append(head.Nodes, s.Key)
		}
		if s.Value != nil {
			head.Nodes = append(head.Nodes, s.Value)
		}
		body := b.newBlock("range.body")
		after := b.newBlock("range.after")
		head.addSucc(body)
		head.addSucc(after)
		b.withLoop(after, head, func() {
			b.cur = body
			b.stmtList(s.Body.List)
			if b.cur != nil {
				b.cur.addSucc(head)
			}
		})
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.emit(s.Tag)
		}
		b.buildSwitch(s.Body, "switch")

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.emit(s.Assign)
		b.buildSwitch(s.Body, "typeswitch")

	case *ast.SelectStmt:
		b.buildSelect(s)

	case *ast.LabeledStmt:
		switch inner := s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			b.pendingLabel = s.Label.Name
			b.stmt(inner)
			b.pendingLabel = ""
		default:
			// A labeled plain statement: a goto target.
			target := b.newBlock("label." + s.Label.Name)
			b.startBlock(target)
			b.labels[s.Label.Name] = target
			for _, src := range b.gotoFixups[s.Label.Name] {
				src.addSucc(target)
			}
			delete(b.gotoFixups, s.Label.Name)
			b.stmt(s.Stmt)
		}

	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if t, ok := b.breakTargets[label]; ok && b.cur != nil {
				b.cur.addSucc(t)
			}
			b.cur = nil
		case token.CONTINUE:
			if t, ok := b.continueTargets[label]; ok && b.cur != nil {
				b.cur.addSucc(t)
			}
			b.cur = nil
		case token.GOTO:
			if b.cur != nil {
				if t, ok := b.labels[label]; ok {
					b.cur.addSucc(t)
				} else {
					b.gotoFixups[label] = append(b.gotoFixups[label], b.cur)
				}
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled by buildSwitch via fallthroughNext; emit marks it.
			b.emit(s)
		}

	case *ast.ReturnStmt:
		b.emit(s)
		if b.cur != nil {
			b.cur.addSucc(b.cfg.Exit)
		}
		b.cur = nil

	case *ast.DeferStmt:
		b.cfg.Defers = append(b.cfg.Defers, s)
		// Argument expressions evaluate here; record the whole stmt so
		// analyzers see the defer site in flow order too.
		b.emit(s)

	case *ast.ExprStmt:
		b.emit(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && b.isTerminatingCall(call) {
			if b.cur != nil {
				b.cur.addSucc(b.cfg.Exit)
			}
			b.cur = nil
		}

	case *ast.GoStmt:
		// The call's function and argument expressions evaluate here; the
		// body runs on another goroutine and is analyzed separately.
		b.emit(s)

	default:
		// Assignments, declarations, sends, inc/dec, empty statements:
		// straight-line nodes.
		b.emit(s)
	}
}

// buildSwitch translates a (type) switch: every case clause branches from
// the head, fallthrough chains to the next clause, break (and clause end)
// goes to the after block.
func (b *cfgBuilder) buildSwitch(body *ast.BlockStmt, kind string) {
	head := b.cur
	if head == nil {
		head = b.newBlock(kind + ".head")
		b.cur = head
	}
	after := b.newBlock(kind + ".after")
	label := b.takeLabel()
	clauses := make([]*ast.CaseClause, 0, len(body.List))
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock(kind + ".case")
	}
	hasDefault := false
	for i, cc := range clauses {
		head.addSucc(blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		head.addSucc(after)
	}
	b.withBreak(label, after, func() {
		for i, cc := range clauses {
			b.cur = blocks[i]
			for _, e := range cc.List {
				blocks[i].Nodes = append(blocks[i].Nodes, e)
			}
			b.stmtList(cc.Body)
			if b.cur != nil {
				// fallthrough must be the final statement; detect it.
				if n := len(cc.Body); n > 0 {
					if br, ok := cc.Body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && i+1 < len(blocks) {
						b.cur.addSucc(blocks[i+1])
						b.cur = nil
						continue
					}
				}
				b.cur.addSucc(after)
				b.cur = nil
			}
		}
	})
	b.cur = after
}

// buildSelect translates a select: each comm clause branches from the head;
// the comm operation (send or receive) is the clause block's first node. A
// select with no default blocks until some case fires; the head block gets
// a synthetic empty-body SelectStmt marker at the select's position so flow
// analyzers (lockscope) can see the blocking point without re-walking the
// clause bodies, which live in their own blocks.
func (b *cfgBuilder) buildSelect(s *ast.SelectStmt) {
	head := b.cur
	if head == nil {
		head = b.newBlock("select.head")
		b.cur = head
	}
	blocking := true
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			blocking = false
		}
	}
	if blocking {
		head.Nodes = append(head.Nodes, &ast.SelectStmt{Select: s.Select, Body: &ast.BlockStmt{}})
	}
	after := b.newBlock("select.after")
	label := b.takeLabel()
	b.withBreak(label, after, func() {
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			blk := b.newBlock("select.case")
			head.addSucc(blk)
			b.cur = blk
			if cc.Comm != nil {
				blk.Nodes = append(blk.Nodes, cc.Comm)
			}
			b.stmtList(cc.Body)
			if b.cur != nil {
				b.cur.addSucc(after)
				b.cur = nil
			}
		}
	})
	b.cur = after
}

// withLoop runs body with break/continue targets registered for the loop,
// under the pending label if any.
func (b *cfgBuilder) withLoop(brk, cont *Block, body func()) {
	label := b.takeLabel()
	savedB, hadB := b.breakTargets[""]
	savedC, hadC := b.continueTargets[""]
	b.breakTargets[""] = brk
	b.continueTargets[""] = cont
	if label != "" {
		b.breakTargets[label] = brk
		b.continueTargets[label] = cont
	}
	body()
	if hadB {
		b.breakTargets[""] = savedB
	} else {
		delete(b.breakTargets, "")
	}
	if hadC {
		b.continueTargets[""] = savedC
	} else {
		delete(b.continueTargets, "")
	}
	if label != "" {
		delete(b.breakTargets, label)
		delete(b.continueTargets, label)
	}
}

// withBreak runs body with a break target (switch/select) registered.
func (b *cfgBuilder) withBreak(label string, brk *Block, body func()) {
	saved, had := b.breakTargets[""]
	b.breakTargets[""] = brk
	if label != "" {
		b.breakTargets[label] = brk
	}
	body()
	if had {
		b.breakTargets[""] = saved
	} else {
		delete(b.breakTargets, "")
	}
	if label != "" {
		delete(b.breakTargets, label)
	}
}

// takeLabel consumes the pending construct label.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// sortedBlockEdges returns "i->j" edge strings sorted, for tests.
func (c *CFG) sortedBlockEdges() []string {
	var out []string
	for _, b := range c.Blocks {
		for _, s := range b.Succs {
			out = append(out, fmt.Sprintf("%d->%d", b.Index, s.Index))
		}
	}
	sort.Strings(out)
	return out
}
