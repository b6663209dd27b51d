package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Idempotent enforces the maybe-committed contract: RunIdempotent and
// TransactIdempotent retry commit_unknown_result, which double-applies any
// non-idempotent closure when the unknown commit actually landed. So does
// passing fdb.ModeIdempotent to the retry loop (Database.Retry) directly. The
// promise cannot be checked mechanically, so every call site — and every use
// of fdb.ModeIdempotent outside package fdb — must carry a reasoned
//
//	//rl:idempotent <why re-running a committed attempt is safe>
//
// directive on the call line or the line directly above — the same audit-trail
// rule as lint:allow. A directive with no reason is itself a finding.
var Idempotent = &Analyzer{
	Name: "idempotent",
	Doc:  "RunIdempotent/TransactIdempotent call sites and fdb.ModeIdempotent uses must justify the idempotency promise with //rl:idempotent <reason>",
	Run:  runIdempotent,
}

const idempotentPrefix = "//rl:idempotent"

// idempotentRunners maps receiver types to the entry points that retry
// maybe-committed commits under the caller's idempotency promise: the
// Runner's for foreground requests, the Database's for background work.
var idempotentRunners = map[[2]string]map[string]bool{
	{"recordlayer", "Runner"}: {"RunIdempotent": true},
	{fdbPath, "Database"}:     {"TransactIdempotent": true},
}

const fdbPath = "recordlayer/internal/fdb"

func runIdempotent(p *Pass) error {
	for _, f := range p.Files {
		if isTestFile(p.Fset, f) {
			continue
		}
		reasons, bare := idempotentDirectives(p.Fset, f)
		justified := func(pos token.Pos, what string) {
			line := p.Fset.Position(pos).Line
			switch {
			case reasons[line] || reasons[line-1]:
			case bare[line] || bare[line-1]:
				p.Reportf(pos, "%s's rl:idempotent directive carries no reason — say why re-running a committed attempt is safe", what)
			default:
				p.Reportf(pos, "%s retries maybe-committed transactions under an idempotency promise; justify it with //rl:idempotent <reason> on this line or the line above", what)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && p.Path != fdbPath {
				if c, ok := p.Info.Uses[sel.Sel].(*types.Const); ok && c.Pkg() != nil &&
					c.Pkg().Path() == fdbPath && c.Name() == "ModeIdempotent" {
					justified(sel.Pos(), "fdb.ModeIdempotent")
				}
				return true
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p.Info, call)
			if fn == nil {
				return true
			}
			named := namedRecv(fn)
			if named == nil || named.Obj().Pkg() == nil {
				return true
			}
			methods := idempotentRunners[[2]string{named.Obj().Pkg().Path(), named.Obj().Name()}]
			if methods == nil || !methods[fn.Name()] {
				return true
			}
			justified(call.Pos(), fn.Name())
			return true
		})
	}
	return nil
}

// idempotentDirectives scans one file's comments for rl:idempotent
// directives, split into reasoned ones and bare ones, keyed by line.
func idempotentDirectives(fset *token.FileSet, f *ast.File) (reasons, bare map[int]bool) {
	reasons = map[int]bool{}
	bare = map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, idempotentPrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, idempotentPrefix)
			if rest != "" && !strings.HasPrefix(rest, " ") {
				continue // e.g. //rl:idempotentish — not ours
			}
			line := fset.Position(c.Pos()).Line
			if strings.TrimSpace(rest) == "" {
				bare[line] = true
			} else {
				reasons[line] = true
			}
		}
	}
	return reasons, bare
}
