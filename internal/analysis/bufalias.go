package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
)

// BufAlias enforces the buffer-disjointness contracts of the kernels and
// the transports. Two failure classes:
//
//  1. A caller passes one backing array as both dst and src to a kernel
//     documented as out-of-place (dist.CT.Forward, dist.SOI.Forward,
//     fft.SixStep.Forward, the conv Apply kernels). Those kernels stream
//     reads and writes in different orders; aliased buffers silently
//     corrupt the spectrum. Slice values are tracked through local
//     assignments and sub-slicing, so `y := x; k.Forward(y, x)` is caught;
//     sub-slices with provably disjoint constant ranges are not flagged.
//
//  2. A buffer handed to the Send of a transport that does NOT copy its
//     payload (the mpi.Comm contract promises a copy; a concrete zero-copy
//     transport opts out of it) is mutated on some later path — including
//     the next iteration of the enclosing loop, via the CFG back edge. The
//     in-flight message then carries corrupted data.
var BufAlias = &Analyzer{
	Name: "bufalias",
	Doc:  "flags aliased dst/src buffers passed to out-of-place kernels and mutation of slices loaned to non-copying transports",
	Run:  runBufAlias,
}

// disjointSigs are the callees whose listed argument pairs must not alias.
// Receivers are matched by named type; functions by package-path suffix.
var disjointSigs = []struct {
	pkg  string // import path suffix
	recv string // receiver named type ("" = package function)
	fn   string
	a, b int // argument indices that must be disjoint
}{
	{"internal/dist", "CT", "Forward", 0, 1},
	{"internal/dist", "SOI", "Forward", 0, 1},
	{"internal/dist", "SOI", "Inverse", 0, 1},
	{"internal/fft", "SixStep", "Forward", 0, 1},
	{"internal/conv", "", "Apply", 2, 3},
	{"internal/conv", "", "ApplyDense", 1, 2},
}

// copyingSendTypes are the concrete internal/mpi transports whose Send
// honors the Comm contract ("the data is copied; the caller may reuse the
// slice immediately"). Calls through the Comm interface are governed by the
// contract itself. Any other concrete sender is treated as zero-copy.
var copyingSendTypes = map[string]bool{
	"inprocComm": true,
	"TCPNode":    true,
	"Proxy":      true,
}

func runBufAlias(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, fs := range funcBodies(file) {
			if fs.name != "" { // literals are covered by their declaring body's walk below
				checkDisjointArgs(pass, fs.body)
			}
			checkSendRetention(pass, fs.body)
		}
	}
}

// ---- part 1: aliased dst/src arguments ----

// sliceRange is the half-open constant range of a slice expression, when
// known. hi < 0 means "to the end".
type sliceRange struct {
	known  bool
	lo, hi int64
}

func (r sliceRange) disjoint(o sliceRange) bool {
	if !r.known || !o.known {
		return false // unknown extent: assume overlap
	}
	// An open-ended range [lo:] is disjoint from the other only when the
	// other ends at or before lo.
	if r.hi < 0 && o.hi < 0 {
		return false
	}
	if r.hi < 0 {
		return o.hi <= r.lo
	}
	if o.hi < 0 {
		return r.hi <= o.lo
	}
	return r.hi <= o.lo || o.hi <= r.lo
}

// aliasPaths maps local slice variables to the canonical access path of the
// value they alias, built from one in-order scan of the function body.
type aliasPaths struct {
	info  *types.Info
	canon map[types.Object]pathRange
}

type pathRange struct {
	path string
	rng  sliceRange
}

func collectAliases(body *ast.BlockStmt, info *types.Info) *aliasPaths {
	a := &aliasPaths{info: info, canon: make(map[types.Object]pathRange)}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Lhs {
			id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil {
				continue
			}
			if pr, ok := a.resolve(as.Rhs[i]); ok {
				a.canon[obj] = pr
			} else {
				// Reassigned from a fresh value (make, call, literal):
				// breaks any earlier alias.
				delete(a.canon, obj)
			}
		}
		return true
	})
	return a
}

// resolve reduces an aliasing expression (identifier, selector chain,
// slice/index of one) to a canonical path. Calls, literals and other
// fresh-value expressions do not resolve.
func (a *aliasPaths) resolve(e ast.Expr) (pathRange, bool) {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := a.info.Uses[v]
		if obj == nil {
			return pathRange{}, false
		}
		if pr, ok := a.canon[obj]; ok {
			return pr, true
		}
		return pathRange{path: fmt.Sprintf("%s@%d", obj.Name(), obj.Pos())}, true
	case *ast.SelectorExpr:
		base, ok := a.resolve(v.X)
		if !ok {
			return pathRange{}, false
		}
		return pathRange{path: base.path + "." + v.Sel.Name}, true
	case *ast.IndexExpr:
		base, ok := a.resolve(v.X)
		if !ok {
			return pathRange{}, false
		}
		// A constant or simple-identifier index keeps elements of a
		// slice-of-slices distinguishable; anything else gets a unique
		// placeholder (distinct from every other path — no false aliasing).
		switch idx := ast.Unparen(v.Index).(type) {
		case *ast.BasicLit:
			return pathRange{path: base.path + "[" + idx.Value + "]"}, true
		case *ast.Ident:
			return pathRange{path: base.path + "[" + idx.Name + "]"}, true
		default:
			return pathRange{path: fmt.Sprintf("%s[?%d]", base.path, v.Pos())}, true
		}
	case *ast.SliceExpr:
		base, ok := a.resolve(v.X)
		if !ok {
			return pathRange{}, false
		}
		if base.rng.known {
			// Re-slicing an already-narrowed alias: offsets compose, but
			// tracking that exactly is not worth it — drop to unknown range
			// (conservative: overlaps).
			return pathRange{path: base.path}, true
		}
		rng := sliceRange{known: true, lo: 0, hi: -1}
		if v.Low != nil {
			lo, ok := constInt(a.info, v.Low)
			if !ok {
				return pathRange{path: base.path}, true
			}
			rng.lo = lo
		}
		if v.High != nil {
			hi, ok := constInt(a.info, v.High)
			if !ok {
				return pathRange{path: base.path}, true
			}
			rng.hi = hi
		}
		return pathRange{path: base.path, rng: rng}, true
	}
	return pathRange{}, false
}

func constInt(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

func checkDisjointArgs(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	aliases := collectAliases(body, info)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeFunc(info, call)
		if f == nil {
			return true
		}
		for _, sig := range disjointSigs {
			if f.Name() != sig.fn || !pathHasSuffix(pkgPathOf(f), sig.pkg) {
				continue
			}
			if recvName(f) != sig.recv {
				continue
			}
			if sig.a >= len(call.Args) || sig.b >= len(call.Args) {
				continue
			}
			pa, okA := aliases.resolve(call.Args[sig.a])
			pb, okB := aliases.resolve(call.Args[sig.b])
			if !okA || !okB || pa.path != pb.path {
				continue
			}
			if pa.rng.disjoint(pb.rng) {
				continue
			}
			pass.Reportf(call.Pos(), "%s requires disjoint buffers but arguments %d and %d alias the same backing array; the kernel will read partially overwritten data", calleeLabel(f), sig.a, sig.b)
		}
		return true
	})
}

// recvName returns the named type of a method's receiver ("" for plain
// functions), pointers stripped.
func recvName(f *types.Func) string {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// ---- part 2: mutation after a zero-copy Send ----

// recvIsInterface reports whether f is an interface method (its receiver
// type's underlying is an interface).
func recvIsInterface(f *types.Func) bool {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func checkSendRetention(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	aliases := collectAliases(body, info)
	var g *funcCFG // built lazily: most functions have no zero-copy sends

	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != body {
			return false // literal bodies get their own CFG/walk
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeFunc(info, call)
		if f == nil || f.Name() != "Send" || !pathHasSuffix(pkgPathOf(f), "internal/mpi") || len(call.Args) < 3 {
			return true
		}
		if recvIsInterface(f) {
			return true // the Comm interface contract promises a copy
		}
		recv := recvName(f)
		if recv == "" || copyingSendTypes[recv] {
			return true // a documented copying transport
		}
		loaned, ok := aliases.resolve(call.Args[2])
		if !ok {
			return true
		}
		if g == nil {
			g = buildCFG(body)
		}
		after := g.reachableAfter(enclosingStmt(g, call, body))
		reportMutations(pass, body, g, after, aliases, loaned, recv, call)
		return true
	})
}

// enclosingStmt finds the registered CFG node containing n (the statement n
// hangs off). Falls back to n itself.
func enclosingStmt(g *funcCFG, n ast.Node, body *ast.BlockStmt) ast.Node {
	var found ast.Node
	ast.Inspect(body, func(m ast.Node) bool {
		if found != nil {
			return false
		}
		if _, ok := g.pos[m]; ok && m.Pos() <= n.Pos() && n.End() <= m.End() {
			found = m
			return false // the outermost registered node containing n
		}
		return true
	})
	if found == nil {
		return n
	}
	return found
}

// reportMutations flags writes to the loaned buffer on paths after the
// Send: element or sub-slice stores, and copy() into it.
func reportMutations(pass *Pass, body *ast.BlockStmt, g *funcCFG, after func(ast.Node) bool, aliases *aliasPaths, loaned pathRange, transport string, send *ast.CallExpr) {
	info := pass.Pkg.Info
	sendPos := pass.Pkg.Fset.Position(send.Pos())
	sameBuf := func(e ast.Expr) bool {
		pr, ok := aliases.resolve(e)
		return ok && pr.path == loaned.path
	}
	ast.Inspect(body, func(n ast.Node) bool {
		stmt, isStmt := n.(ast.Stmt)
		if !isStmt {
			return true
		}
		if _, registered := g.pos[stmt]; !registered || !after(stmt) {
			return true
		}
		switch v := stmt.(type) {
		case *ast.AssignStmt:
			for _, l := range v.Lhs {
				switch lv := ast.Unparen(l).(type) {
				case *ast.IndexExpr:
					if sameBuf(lv.X) {
						pass.Reportf(l.Pos(), "write to %s after it was handed to (%s).Send at line %d; the transport does not copy, so the in-flight message may be corrupted", loanedName(lv.X), transport, sendPos.Line)
					}
				case *ast.SliceExpr:
					if sameBuf(lv.X) {
						pass.Reportf(l.Pos(), "write to %s after it was handed to (%s).Send at line %d; the transport does not copy, so the in-flight message may be corrupted", loanedName(lv.X), transport, sendPos.Line)
					}
				}
			}
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(v.X).(*ast.CallExpr); ok && calleeBuiltin(info, call) == "copy" && len(call.Args) == 2 && sameBuf(call.Args[0]) {
				pass.Reportf(call.Pos(), "copy into %s after it was handed to (%s).Send at line %d; the transport does not copy, so the in-flight message may be corrupted", loanedName(call.Args[0]), transport, sendPos.Line)
			}
		}
		return true
	})
}

func loanedName(e ast.Expr) string {
	if id := rootIdent(e); id != nil {
		return id.Name
	}
	return "the sent buffer"
}
