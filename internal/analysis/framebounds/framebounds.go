// Package framebounds requires a length guard before the first byte-slice
// index in decoder functions of the codec packages.
//
// Every byte decoder in the tree (checkpoint records, wire frames, HELLO
// handshakes, compression payloads, plan-epoch frames read back from
// checkpoints) faces untrusted
// input: disk corruption, chaos-mangled streams, truncated payloads. The
// fuzz targets catch panics after the fact; this analyzer encodes the rule
// that prevents them — inside a Decode* function, the input []byte
// parameter may not be indexed or sliced before a len() comparison on it
// has run. The check is positional (guard position before first access
// position), a deliberate heuristic: codecs in this repository validate
// length prefixes up front, so any index that precedes every guard is
// either a bug or worth a //hipress:framebounds note.
package framebounds

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hipress/internal/analysis"
)

// Analyzer is the decoder bounds contract.
var Analyzer = &analysis.Analyzer{
	Name: "framebounds",
	Doc: "in Decode* functions of the codec packages, the []byte parameter must pass a len() " +
		"guard before its first index/slice expression (suppress with //hipress:framebounds)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if !pass.InCriticalScope(file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			if strings.HasPrefix(fn.Name.Name, "Decode") || strings.HasPrefix(fn.Name.Name, "decode") {
				checkDecoder(pass, fn)
			}
			return false
		})
	}
	return nil
}

func checkDecoder(pass *analysis.Pass, fn *ast.FuncDecl) {
	for _, param := range byteSliceParams(pass, fn) {
		firstGuard := token.NoPos
		firstAccess := token.NoPos
		var accessNode ast.Node
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if isComparison(n.Op) && (containsLenOf(pass, n.X, param) || containsLenOf(pass, n.Y, param)) {
					if !firstGuard.IsValid() || n.Pos() < firstGuard {
						firstGuard = n.Pos()
					}
				}
			case *ast.IndexExpr:
				if usesParam(pass, n.X, param) {
					if !firstAccess.IsValid() || n.Pos() < firstAccess {
						firstAccess, accessNode = n.Pos(), n
					}
				}
			case *ast.SliceExpr:
				if usesParam(pass, n.X, param) && (n.Low != nil || n.High != nil) {
					if !firstAccess.IsValid() || n.Pos() < firstAccess {
						firstAccess, accessNode = n.Pos(), n
					}
				}
			}
			return true
		})
		if !firstAccess.IsValid() {
			continue
		}
		if !firstGuard.IsValid() {
			pass.Reportf(accessNode.Pos(), "decoder %s indexes parameter %q with no len() guard "+
				"anywhere in the function: untrusted input panics instead of returning a typed "+
				"error (guard first or suppress with //hipress:framebounds)", fn.Name.Name, param.Name())
		} else if firstAccess < firstGuard {
			guard := pass.Fset.Position(firstGuard)
			pass.Reportf(accessNode.Pos(), "decoder %s indexes parameter %q before the first len() "+
				"guard (line %d): validate the length prefix first or suppress with "+
				"//hipress:framebounds", fn.Name.Name, param.Name(), guard.Line)
		}
	}
}

// byteSliceParams returns the function's []byte parameters.
func byteSliceParams(pass *analysis.Pass, fn *ast.FuncDecl) []*types.Var {
	var out []*types.Var
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			if s, ok := obj.Type().Underlying().(*types.Slice); ok {
				if b, ok := s.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.Byte {
					out = append(out, obj)
				}
			}
		}
	}
	return out
}

func isComparison(op token.Token) bool {
	switch op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		return true
	}
	return false
}

// containsLenOf reports whether expr contains len(param).
func containsLenOf(pass *analysis.Pass, expr ast.Expr, param *types.Var) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "len" {
			return true
		}
		if usesParam(pass, call.Args[0], param) {
			found = true
			return false
		}
		return true
	})
	return found
}

// usesParam reports whether expr is an identifier bound to param.
func usesParam(pass *analysis.Pass, expr ast.Expr, param *types.Var) bool {
	id, ok := expr.(*ast.Ident)
	return ok && pass.TypesInfo.Uses[id] == param
}
