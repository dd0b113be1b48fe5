package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// CtxCheck enforces the cancellation-checkpoint contract established by
// PR 3 (cooperative mid-Open cancellation) and extended by PR 7 (memory
// budgets charged at the same checkpoints): inside the execution
// packages (internal/core, internal/align, internal/par,
// internal/engine), any loop that drains tuples, batches or fragments in
// a function that has the query context in scope must observe that
// context — directly (ctx.Err(), ctx.Done(), a select on it), by passing
// it to a callee, or through a budget checkpoint ((*mem.Gauge).Charge).
// A drain loop that never touches the context is a blocking hang under
// per-query timeouts, admission-control cancellation and graceful drain.
var CtxCheck = &Analyzer{
	Name: "ctxcheck",
	Doc: "drain loops in the execution packages must reach a cancellation checkpoint\n\n" +
		"A for/range loop that pulls tuples (Next/NextBatch) or ranges over\n" +
		"relation tuples, inside a function where a context.Context is in\n" +
		"scope, must reference the context (ctx.Err, ctx.Done, passing it on)\n" +
		"or hit a budget checkpoint (Gauge.Charge) somewhere in its body.",
	Run: runCtxCheck,
}

// ctxScopeRe names the packages the checkpoint contract covers. Fixture
// packages mimic the layout (".../internal/core/...") to opt in.
var ctxScopeRe = regexp.MustCompile(`internal/(core|align|par|engine)(/|$)`)

func runCtxCheck(pass *Pass) error {
	if !ctxScopeRe.MatchString(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !hasCtxInScope(pass, fd) {
				continue
			}
			checkLoops(pass, fd.Body)
		}
	}
	return nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	return t != nil && t.String() == "context.Context"
}

// hasCtxInScope reports whether fd declares (as parameter or local,
// including nested function literals' parameters) a value of type
// context.Context. Functions that never see a context cannot checkpoint
// one; their blocking behavior is their caller's problem — the contract
// binds the functions the context was threaded into.
func hasCtxInScope(pass *Pass, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pass.Info.Defs[id]; obj != nil && isContextType(obj.Type()) {
			found = true
		}
		return true
	})
	return found
}

// checkLoops walks body and reports drain loops without a checkpoint.
func checkLoops(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		var loopBody *ast.BlockStmt
		var isDrain bool
		switch loop := n.(type) {
		case *ast.ForStmt:
			loopBody = loop.Body
			isDrain = bodyDrains(loopBody)
		case *ast.RangeStmt:
			loopBody = loop.Body
			isDrain = bodyDrains(loopBody) || rangesOverTuples(loop.X)
		default:
			return true
		}
		if isDrain && !bodyCheckpoints(pass, loopBody) {
			pass.Reportf(n.Pos(), "drain loop has no cancellation checkpoint: reference the query context (ctx.Err/ctx.Done/pass it to a callee) or charge a budget gauge inside the loop")
		}
		return true
	})
}

// rangesOverTuples reports whether x is a relation-tuple range target
// (any expression mentioning a .Tuples selector).
func rangesOverTuples(x ast.Expr) bool {
	found := false
	ast.Inspect(x, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Tuples" {
			found = true
		}
		return !found
	})
	return found
}

// drainCallNames are the method/function names whose presence makes a
// loop a tuple/batch/fragment drain.
var drainCallNames = map[string]bool{
	"Next": true, "NextBatch": true, "Drain": true,
}

// bodyDrains reports whether the loop body pulls from an iterator.
func bodyDrains(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		switch fn := call.Fun.(type) {
		case *ast.SelectorExpr:
			if drainCallNames[fn.Sel.Name] {
				found = true
			}
		case *ast.Ident:
			if drainCallNames[fn.Name] {
				found = true
			}
		}
		return !found
	})
	return found
}

// bodyCheckpoints reports whether the loop body observes the query
// context or a budget gauge: any expression of type context.Context, or
// a call to a Charge method on a mem.Gauge-shaped receiver.
func bodyCheckpoints(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			// A use of any context-typed value counts: ctx.Err(), a select
			// on ctx.Done(), or threading ctx into a callee that checks.
			if obj := pass.Info.Uses[n]; obj != nil && isContextType(obj.Type()) {
				found = true
			}
		case *ast.SelectorExpr:
			// Field access to a stored context (e.g. j.ctx bound by
			// BindContext) counts the same as a parameter use.
			if isContextType(pass.TypeOf(n)) {
				found = true
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Charge" {
				if isGaugeType(pass.TypeOf(sel.X)) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// isGaugeType reports whether t is a (pointer to a) named type called
// Gauge — the budget checkpoint receiver (internal/mem.Gauge; fixtures
// declare their own).
func isGaugeType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Gauge"
}
