package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RetrySafe checks the classic FDB retry-loop hazard: a closure that reaches
// the retry loop re-executes after a conflict, so accumulating into state
// captured from outside the closure — append-to-self on a captured slice,
// ++/op= on a captured counter, writes into a captured map — double-counts on
// retry. Every func literal passed where the parameter type is
// fdb.TransactFunc is checked: Runner.Run/ReadRun, Database.Transact and
// ReadTransact, and any helper that forwards its closure to them. A closure
// that resets the variable inside itself (x = nil, x = x[:0], x = 0,
// x = make(...), clear(m)) is idempotent and passes.
var RetrySafe = &Analyzer{
	Name: "retrysafe",
	Doc:  "transactional closures must not accumulate into captured state — retries re-run the closure",
	Run:  runRetrySafe,
}

func runRetrySafe(p *Pass) error {
	for _, f := range p.Files {
		if isTestFile(p.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sig, ok := p.Info.Types[call.Fun].Type.(*types.Signature)
			if !ok {
				return true
			}
			for i, arg := range call.Args {
				lit, ok := ast.Unparen(arg).(*ast.FuncLit)
				if ok && i < sig.Params().Len() && isTransactFunc(sig.Params().At(i).Type()) {
					checkRetryClosure(p, lit)
				}
			}
			return true
		})
	}
	return nil
}

// isTransactFunc reports whether t is fdb.TransactFunc, the closure type the
// retry loop runs.
func isTransactFunc(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == fdbPath && named.Obj().Name() == "TransactFunc"
}

// violation is one non-idempotent mutation of a captured variable.
type violation struct {
	pos  token.Pos
	obj  types.Object
	what string
}

func checkRetryClosure(p *Pass, lit *ast.FuncLit) {
	var violations []violation
	reset := map[types.Object]bool{}

	// captured reports whether id resolves to a variable declared outside the
	// closure (including package-level vars).
	captured := func(id *ast.Ident) types.Object {
		obj := p.Info.Uses[id]
		if obj == nil {
			obj = p.Info.Defs[id]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return nil
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return nil // declared inside the closure (or its params)
		}
		return v
	}

	// rootCapture resolves the base identifier of an lvalue chain
	// (x, x.f, x[i], *x) to a captured variable, nil otherwise.
	var rootCapture func(e ast.Expr) types.Object
	rootCapture = func(e ast.Expr) types.Object {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			return captured(e)
		case *ast.SelectorExpr:
			return rootCapture(e.X)
		case *ast.IndexExpr:
			return rootCapture(e.X)
		case *ast.StarExpr:
			return rootCapture(e.X)
		}
		return nil
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.IncDecStmt:
			if obj := rootCapture(s.X); obj != nil {
				violations = append(violations, violation{s.Pos(), obj,
					"increments captured " + exprString(s.X)})
			}
		case *ast.AssignStmt:
			if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
				// Compound assignment (+=, |=, ...) accumulates by definition.
				for _, lhs := range s.Lhs {
					if obj := rootCapture(lhs); obj != nil {
						violations = append(violations, violation{lhs.Pos(), obj,
							"accumulates into captured " + exprString(lhs)})
					}
				}
				return true
			}
			for i, lhs := range s.Lhs {
				var rhs ast.Expr
				if len(s.Rhs) == len(s.Lhs) {
					rhs = s.Rhs[i]
				} else if len(s.Rhs) == 1 {
					rhs = s.Rhs[0]
				}
				// m[k] = v on a captured map: a failed attempt's entries
				// survive into the retry.
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && s.Tok == token.ASSIGN {
					if obj := rootCapture(ix.X); obj != nil && isMapExpr(p.Info, ix.X) {
						violations = append(violations, violation{lhs.Pos(), obj,
							"writes into captured map " + exprString(ix.X)})
					}
					continue
				}
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || s.Tok != token.ASSIGN {
					continue
				}
				obj := captured(id)
				if obj == nil {
					continue
				}
				if isSelfAppend(p.Info, id, rhs) {
					violations = append(violations, violation{lhs.Pos(), obj,
						"appends to captured " + id.Name})
				} else if isFreshValue(p.Info, id, rhs) {
					reset[obj] = true
				}
				// A plain overwrite (x = f(...)) is idempotent: every retry
				// computes it anew.
			}
		case *ast.CallExpr:
			// clear(m) resets a captured map.
			if id, ok := ast.Unparen(s.Fun).(*ast.Ident); ok && id.Name == "clear" && len(s.Args) == 1 {
				if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
					if obj := rootCapture(s.Args[0]); obj != nil {
						reset[obj] = true
					}
				}
			}
		}
		return true
	})

	for _, v := range violations {
		if reset[v.obj] {
			continue
		}
		p.Reportf(v.pos, "closure %s; the runner re-executes it on conflict, double-counting on retry — reset it inside the closure or move the mutation after the transaction", v.what)
	}
}

// isSelfAppend reports rhs == append(id, ...).
func isSelfAppend(info *types.Info, id *ast.Ident, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	if _, isBuiltin := info.Uses[fn].(*types.Builtin); !isBuiltin {
		return false
	}
	base, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && info.Uses[base] == info.Uses[id]
}

// isFreshValue reports whether rhs reinitializes id from scratch: nil, a
// literal, a composite literal, make(...), or id[:0].
func isFreshValue(info *types.Info, id *ast.Ident, rhs ast.Expr) bool {
	switch r := ast.Unparen(rhs).(type) {
	case *ast.Ident:
		return r.Name == "nil"
	case *ast.BasicLit, *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		fn, ok := ast.Unparen(r.Fun).(*ast.Ident)
		if !ok || fn.Name != "make" {
			return false
		}
		_, isBuiltin := info.Uses[fn].(*types.Builtin)
		return isBuiltin
	case *ast.SliceExpr:
		base, ok := ast.Unparen(r.X).(*ast.Ident)
		if !ok || info.Uses[base] != info.Uses[id] {
			return false
		}
		// x[:0] (and x[0:0]) empty the slice.
		high, ok := r.High.(*ast.BasicLit)
		return ok && high.Value == "0"
	}
	return false
}

func isMapExpr(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
