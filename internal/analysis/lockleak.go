package analysis

import (
	"go/ast"
	"go/types"
)

// LockLeakAnalyzer flags sync.Mutex/RWMutex Lock (and RLock) calls that
// are not provably released on the paths the analyzer can see: the
// statement after the Lock is neither a matching deferred Unlock nor the
// start of a straight-line path ending in a matching Unlock, or a branch
// between Lock and Unlock returns without unlocking. A leaked lock in
// the serving path is a one-request outage that -race cannot catch (no
// data race, just a wedged shard), so the discipline is mechanical:
// defer the Unlock, or unlock explicitly on every path. Lock handoffs
// that genuinely cross function boundaries document themselves with
// //pqlint:allow lockleak.
//
// The check is intra-block: a Lock whose matching Unlock lives in a
// nested statement is accepted as long as no return escapes first, so
// the common `if ... { mu.Unlock(); return }` ladder passes, while a
// bare `if err != nil { return err }` between Lock and Unlock is caught.
var LockLeakAnalyzer = &Analyzer{
	Name: "lockleak",
	Doc:  "flag mutex Lock without a deferred or path-covering Unlock",
	Run:  runLockLeak,
}

// lockPairs maps acquire method names to their release.
var lockPairs = map[string]string{
	"Lock":  "Unlock",
	"RLock": "RUnlock",
}

func runLockLeak(pass *Pass) {
	pass.Inspector().Preorder([]ast.Node{(*ast.BlockStmt)(nil)}, func(n ast.Node) {
		block := n.(*ast.BlockStmt)
		for i, st := range block.List {
			es, ok := st.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			recv, unlock, ok := mutexAcquire(pass, call)
			if !ok {
				continue
			}
			checkLockPath(pass, call, block.List[i+1:], recv, unlock)
		}
	})
}

// mutexAcquire reports whether call is recv.Lock() or recv.RLock() on a
// sync.Mutex or sync.RWMutex (directly or embedded), returning the
// textual receiver and the matching release method name.
func mutexAcquire(pass *Pass, call *ast.CallExpr) (recv, unlock string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	release, isAcquire := lockPairs[sel.Sel.Name]
	if !isAcquire {
		return "", "", false
	}
	obj, isUse := pass.TypesInfo.Uses[sel.Sel]
	if !isUse || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", "", false
	}
	if _, isFunc := obj.(*types.Func); !isFunc {
		return "", "", false
	}
	r := recvString(sel.X)
	if r == "" {
		return "", "", false
	}
	return r, release, true
}

// isRelease reports whether call is recv.unlock() for the exact receiver
// text.
func isRelease(call *ast.CallExpr, recv, unlock string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != unlock {
		return false
	}
	return recvString(sel.X) == recv
}

// checkLockPath scans the statements following a Lock within the same
// block and reports when a path escapes without the matching release.
// The scan is deliberately conservative about nesting: a nested release
// that cannot return (e.g. `if cond { mu.Unlock() }`) ends the scan
// without a finding, trading missed conditional leaks for zero noise on
// the codebase's legitimate unlock ladders.
func checkLockPath(pass *Pass, lock *ast.CallExpr, rest []ast.Stmt, recv, unlock string) {
	acquire := lock.Fun.(*ast.SelectorExpr).Sel.Name
	lastReleased := false
	for _, st := range rest {
		switch st := st.(type) {
		case *ast.DeferStmt:
			if isRelease(st.Call, recv, unlock) {
				return // covers every later path
			}
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok && isRelease(call, recv, unlock) {
				return // straight-line release
			}
		case *ast.ReturnStmt:
			pass.Reportf(lock.Pos(), "lockleak",
				"%s.%s: function returns before %s.%s on this path; defer the unlock or release on every return",
				recv, acquire, recv, unlock)
			return
		}
		releases := containsRelease(st, recv, unlock)
		escapes := stmtEscapes(st)
		switch {
		case escapes && !releases:
			pass.Reportf(lock.Pos(), "lockleak",
				"%s.%s: a branch between this lock and its %s.%s returns without unlocking",
				recv, acquire, recv, unlock)
			return
		case releases && !escapes:
			// A nested, possibly conditional release with no way to
			// return early: accept.
			return
		}
		// releases && escapes: an `if ... { unlock; return }` arm —
		// the fallthrough path still needs its own release, keep going.
		lastReleased = releases
	}
	if lastReleased {
		// The block ends in a branch statement (if/else, switch) whose
		// arms release and return; there is no fallthrough to cover.
		return
	}
	pass.Reportf(lock.Pos(), "lockleak",
		"%s.%s: no matching %s.%s in the rest of this block; defer the unlock or release before the block ends",
		recv, acquire, recv, unlock)
}

// containsRelease reports whether the statement's subtree calls
// recv.unlock() anywhere (directly, deferred, or in a nested branch).
func containsRelease(st ast.Stmt, recv, unlock string) bool {
	found := false
	ast.Inspect(st, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isRelease(call, recv, unlock) {
			found = true
		}
		return !found
	})
	return found
}

// stmtEscapes reports whether the statement's subtree can leave the
// enclosing function: a return, or a goto out of the block. Function
// literals inside the statement are opaque — their returns do not leave
// the caller — so the walk does not descend into them.
func stmtEscapes(st ast.Stmt) bool {
	escapes := false
	ast.Inspect(st, func(n ast.Node) bool {
		if escapes {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			escapes = true
		case *ast.BranchStmt:
			if n.Tok.String() == "goto" {
				escapes = true
			}
		}
		return !escapes
	})
	return escapes
}

// recvString renders the receiver expression of a lock call textually,
// which is how two calls are judged to target the same mutex. Index
// expressions render their index too, so s.shards[i].mu and
// s.shards[j].mu stay distinct.
func recvString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		x := recvString(e.X)
		if x == "" {
			return ""
		}
		return x + "." + e.Sel.Name
	case *ast.IndexExpr:
		x := recvString(e.X)
		idx := recvString(e.Index)
		if x == "" {
			return ""
		}
		if idx == "" {
			idx = "?"
		}
		return x + "[" + idx + "]"
	case *ast.ParenExpr:
		return recvString(e.X)
	case *ast.StarExpr:
		x := recvString(e.X)
		if x == "" {
			return ""
		}
		return "*" + x
	case *ast.BasicLit:
		return e.Value
	}
	return ""
}
