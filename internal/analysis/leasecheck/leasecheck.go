// Package leasecheck enforces the arena checkout discipline: a local
// kernels.Lease that checks buffers out (Bytes/F32) must reach Release or
// be spliced into another lease via Adopt on every control-flow path.
//
// The kernel plane's zero-alloc guarantee works because leased buffers
// always return to the size-classed pools; a lease abandoned on an error
// branch silently degrades the arena hit rate forever. The analyzer is a
// lostcancel-style path walk over the function body: if/else and switch
// branches are explored separately, loops are treated as straight-line, and
// any use that lets the lease escape the function (stored, passed, captured
// by a closure) conservatively counts as settled.
//
// One store is followed instead of trusted: a lease placed in the Lease
// field of a local netsim.Message. That is the socket plane's hand-off —
// the read loop leases a payload buffer and ownership travels with the
// delivered message — so the lease stays open until the message itself is
// handed on (sent on a channel, returned, passed along) or settled through
// (msg.Lease.Release(), Adopt(&msg.Lease)). A path that drops such a
// message leaks its buffer exactly like a path that drops the lease.
package leasecheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"hipress/internal/analysis"
)

// Analyzer is the lease lifecycle contract.
var Analyzer = &analysis.Analyzer{
	Name: "leasecheck",
	Doc: "every local kernels.Lease that checks out buffers must reach Release or Adopt " +
		"on all control-flow paths (suppress with //hipress:leasecheck)",
	Aliases: []string{"lease"},
	Run:     run,
}

const (
	leasePkg   = "hipress/internal/kernels"
	messagePkg = "hipress/internal/netsim"
)

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			checkFunc(pass, fn)
			return false
		})
	}
	return nil
}

// leaseInfo is the per-variable verdict state.
type leaseInfo struct {
	obj types.Object
	// deferredSettle: a defer guarantees Release/Adopt on every exit.
	deferredSettle bool
	// escaped: the lease left the function's hands (stored, passed,
	// captured); we stop reasoning about it.
	escaped  bool
	reported bool
	// carrier is the local netsim.Message the lease was stored into, if
	// any: handing that message on settles the lease.
	carrier types.Object
}

type walker struct {
	pass   *analysis.Pass
	leases map[types.Object]*leaseInfo
	// messages are the local netsim.Message variables, the only places a
	// stored lease is followed rather than written off as escaped.
	messages map[types.Object]bool
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	w := &walker{pass: pass, leases: map[types.Object]*leaseInfo{}, messages: map[types.Object]bool{}}
	// Collect local lease and message declarations (params belong to the
	// caller).
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.Defs[id].(*types.Var)
		if !ok {
			return true
		}
		switch {
		case isNamed(obj.Type(), leasePkg, "Lease"):
			w.leases[obj] = &leaseInfo{obj: obj}
		case isNamed(obj.Type(), messagePkg, "Message"):
			w.messages[obj] = true
		}
		return true
	})
	if len(w.leases) == 0 {
		return
	}
	live := map[types.Object]token.Pos{}
	terminated := w.stmts(fn.Body.List, live)
	if !terminated {
		w.reportLive(live)
	}
}

// isNamed reports whether t is the named type pkg.name or a pointer to it.
func isNamed(t types.Type, pkg, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkg
}

// event is one positional action on a tracked lease, or (evHandOff) on a
// message that may be carrying one.
type event struct {
	pos     token.Pos
	obj     types.Object
	kind    int
	carrier types.Object // evCarry: the message the lease was stored into
}

const (
	evCheckout = iota
	evSettle
	evEscape
	evCarry   // lease stored into a local message's Lease field
	evHandOff // obj is a message: sent, returned, passed on, or settled through
)

// events extracts the ordered lease actions inside one expression subtree.
func (w *walker) events(n ast.Node) []event {
	if n == nil {
		return nil
	}
	consumed := map[*ast.Ident]bool{}
	var out []event
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// msg.Lease = l, or msg := netsim.Message{..., Lease: l}.
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && w.messages[w.objOf(id)] {
					consumed[id] = true // overwriting a message hands nothing on
				}
				if len(n.Rhs) != len(n.Lhs) {
					continue
				}
				msg, lease := w.storedLease(lhs, n.Rhs[i])
				if lease == nil {
					continue
				}
				out = append(out, event{pos: lease.Pos(), obj: w.pass.TypesInfo.Uses[lease],
					kind: evCarry, carrier: msg})
				consumed[lease] = true
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					consumed[sel.X.(*ast.Ident)] = true // the store itself settles nothing
				}
			}
		case *ast.SelectorExpr:
			// A field access on a message is not a hand-off, except the
			// ones that settle its lease: msg.Lease.Release() and
			// other.Adopt(&msg.Lease) both spell msg.Lease.
			if id, ok := n.X.(*ast.Ident); ok && w.messages[w.objOf(id)] {
				if n.Sel.Name == "Lease" && !consumed[id] {
					out = append(out, event{pos: id.Pos(), obj: w.objOf(id), kind: evHandOff})
				}
				consumed[id] = true
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			obj := w.pass.TypesInfo.Uses[id]
			if w.leases[obj] == nil {
				return true
			}
			switch sel.Sel.Name {
			case "Bytes", "F32":
				out = append(out, event{pos: id.Pos(), obj: obj, kind: evCheckout})
				consumed[id] = true
			case "Release":
				out = append(out, event{pos: id.Pos(), obj: obj, kind: evSettle})
				consumed[id] = true
			case "Adopt":
				// The receiver absorbs other leases; its own lifetime is
				// unchanged. Arguments are handled by the generic walk.
				consumed[id] = true
			}
		case *ast.Ident:
			obj := w.pass.TypesInfo.Uses[n]
			if consumed[n] {
				break
			}
			if w.leases[obj] != nil {
				out = append(out, event{pos: n.Pos(), obj: obj, kind: evEscape})
			} else if w.messages[obj] {
				// A bare use — channel send, return value, call argument,
				// copy — hands the message, and any lease in it, on.
				out = append(out, event{pos: n.Pos(), obj: obj, kind: evHandOff})
			}
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// objOf resolves an identifier to the object it uses or defines.
func (w *walker) objOf(id *ast.Ident) types.Object {
	if obj := w.pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return w.pass.TypesInfo.Defs[id]
}

// storedLease matches one assignment pair that stores a tracked lease into
// a local message — lhs msg.Lease with rhs l, or lhs msg with rhs a Message
// literal whose Lease field is l — returning the message and the lease
// identifier, or nil.
func (w *walker) storedLease(lhs, rhs ast.Expr) (types.Object, *ast.Ident) {
	tracked := func(e ast.Expr) *ast.Ident {
		if id, ok := e.(*ast.Ident); ok && w.leases[w.pass.TypesInfo.Uses[id]] != nil {
			return id
		}
		return nil
	}
	switch lhs := lhs.(type) {
	case *ast.SelectorExpr:
		if id, ok := lhs.X.(*ast.Ident); ok && lhs.Sel.Name == "Lease" && w.messages[w.objOf(id)] {
			return w.objOf(id), tracked(rhs)
		}
	case *ast.Ident:
		lit, ok := rhs.(*ast.CompositeLit)
		if !ok || !w.messages[w.objOf(lhs)] {
			break
		}
		for _, elt := range lit.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Lease" {
				return w.objOf(lhs), tracked(kv.Value)
			}
		}
	}
	return nil, nil
}

// apply folds events into the live set.
func (w *walker) apply(evs []event, live map[types.Object]token.Pos, inDefer bool) {
	for _, e := range evs {
		if e.kind == evHandOff {
			for _, info := range w.leases {
				if info.carrier == e.obj {
					delete(live, info.obj)
				}
			}
			continue
		}
		info := w.leases[e.obj]
		if info.escaped || info.reported {
			continue
		}
		switch e.kind {
		case evCheckout:
			if info.deferredSettle {
				continue
			}
			if _, ok := live[e.obj]; !ok {
				live[e.obj] = e.pos
			}
		case evSettle:
			delete(live, e.obj)
			if inDefer {
				info.deferredSettle = true
			}
		case evEscape:
			delete(live, e.obj)
			info.escaped = true
		case evCarry:
			info.carrier = e.carrier
		}
	}
}

// reportLive flags every still-live lease at its checkout position.
func (w *walker) reportLive(live map[types.Object]token.Pos) {
	objs := make([]types.Object, 0, len(live))
	for obj := range live {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return live[objs[i]] < live[objs[j]] })
	for _, obj := range objs {
		info := w.leases[obj]
		if info.reported {
			continue
		}
		info.reported = true
		w.pass.Reportf(live[obj], "kernels.Lease %q checks out buffers but does not reach "+
			"Release or Adopt on every path (arena buffers leak); settle it or suppress "+
			"with //hipress:leasecheck", obj.Name())
	}
}

// copyLive clones a live set for branch exploration.
func copyLive(live map[types.Object]token.Pos) map[types.Object]token.Pos {
	out := make(map[types.Object]token.Pos, len(live))
	for k, v := range live {
		out[k] = v
	}
	return out
}

// merge unions branch outcomes back into live.
func merge(into, from map[types.Object]token.Pos) {
	for k, v := range from {
		if _, ok := into[k]; !ok {
			into[k] = v
		}
	}
}

// stmts walks a statement list, mutating live; it returns true when the
// list always terminates the enclosing function (return or panic).
func (w *walker) stmts(list []ast.Stmt, live map[types.Object]token.Pos) bool {
	for _, s := range list {
		if w.stmt(s, live) {
			return true
		}
	}
	return false
}

func (w *walker) stmt(s ast.Stmt, live map[types.Object]token.Pos) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List, live)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, live)
	case *ast.IfStmt:
		w.apply(w.events(s.Init), live, false)
		w.apply(w.events(s.Cond), live, false)
		bodyLive := copyLive(live)
		bodyTerm := w.stmts(s.Body.List, bodyLive)
		if s.Else == nil {
			// Fall-through path keeps live as-is; union the body outcome.
			if !bodyTerm {
				merge(live, bodyLive)
			}
			return false
		}
		elseLive := copyLive(live)
		elseTerm := w.stmt(s.Else, elseLive)
		for k := range live {
			delete(live, k)
		}
		if !bodyTerm {
			merge(live, bodyLive)
		}
		if !elseTerm {
			merge(live, elseLive)
		}
		return bodyTerm && elseTerm
	case *ast.ForStmt:
		w.apply(w.events(s.Init), live, false)
		w.apply(w.events(s.Cond), live, false)
		w.apply(w.events(s.Post), live, false)
		// Loops are treated as straight-line, once-through: a settle inside
		// the body counts, break/continue paths are not distinguished.
		w.stmts(s.Body.List, live)
		return false
	case *ast.RangeStmt:
		w.apply(w.events(s.X), live, false)
		w.stmts(s.Body.List, live)
		return false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.branches(s, live)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.apply(w.events(r), live, false)
		}
		w.reportLive(live)
		return true
	case *ast.BranchStmt:
		// break/continue/goto leave this region; stay silent rather than
		// guess where control lands.
		return true
	case *ast.DeferStmt:
		w.apply(w.events(s.Call), live, true)
		return false
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				w.apply(w.events(s.X), live, false)
				return true
			}
		}
		w.apply(w.events(s.X), live, false)
		return false
	default:
		w.apply(w.events(s), live, false)
		return false
	}
}

// branches explores switch/type-switch/select clause bodies independently.
func (w *walker) branches(s ast.Stmt, live map[types.Object]token.Pos) bool {
	var clauses []ast.Stmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		w.apply(w.events(s.Init), live, false)
		w.apply(w.events(s.Tag), live, false)
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		w.apply(w.events(s.Init), live, false)
		w.apply(w.events(s.Assign), live, false)
		clauses = s.Body.List
	case *ast.SelectStmt:
		// A select runs exactly one of its clauses: without a default it
		// blocks, it does not fall through.
		hasDefault = true
		clauses = s.Body.List
	}
	before := copyLive(live)
	for k := range live {
		delete(live, k)
	}
	allTerm := len(clauses) > 0
	for _, c := range clauses {
		var body []ast.Stmt
		var comm ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			body = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				comm = c.Comm
			}
			body = c.Body
		}
		clauseLive := copyLive(before)
		if comm != nil {
			w.apply(w.events(comm), clauseLive, false)
		}
		if !w.stmts(body, clauseLive) {
			allTerm = false
			merge(live, clauseLive)
		}
	}
	if !hasDefault {
		// No default: the no-match path falls through unchanged.
		merge(live, before)
		return false
	}
	return allTerm
}
