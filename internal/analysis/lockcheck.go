package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Lockcheck enforces the module's lock discipline over the shared call
// graph. Three rules:
//
//  1. A sync.Mutex/RWMutex acquired in a function must be released on every
//     path out of it — every return, the fall-through exit, and panic exits
//     (which only a deferred Unlock covers).
//  2. No potentially-blocking operation while a lock is held: channel send,
//     receive, or default-less select; WaitGroup/Cond Wait; time.Sleep;
//     os file I/O; or a call to any module function whose transitive
//     closure (over the call graph) performs one of those.
//  3. No lock-order inversion: if one function acquires lock B while
//     holding A and another acquires A while holding B, the pair can
//     deadlock under concurrency — the scheduler lock and the telemetry
//     registry lock being the live example this rule exists for.
//
// Lock identity is the mutex *variable*: a struct field (shared across all
// instances of the type — the granularity the module's one-lock-per-struct
// convention makes exact), a package-level var, or a local. Function
// literals are not walked: a closure runs on its creator's schedule, not at
// its creation site, so lock state inside one is the closure's own
// contract (the `flush := func() { // mu held }` idiom).
//
// The analysis is a path-sensitive abstract interpretation per function:
// branches fork the held-set, a branch that terminates (return, panic,
// os.Exit) drops out of the merge, and loops must leave the held-set
// unchanged. A lock deliberately held across a blocking call carries a
// suppression with its reason.
var Lockcheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "mutexes released on every path, nothing blocking while held, no lock-order inversions",
	Run:  runLockcheck,
}

// lockOpAcquire/lockOpRelease classify the sync method names.
var lockMethodOps = map[string]bool{ // name -> is acquire
	"Lock": true, "RLock": true,
	"Unlock": false, "RUnlock": false,
}

// blockingOSFuncs are package-level os functions that perform file I/O.
var blockingOSFuncs = map[string]bool{
	"Create": true, "Open": true, "OpenFile": true, "ReadFile": true,
	"WriteFile": true, "Rename": true, "Remove": true, "RemoveAll": true,
	"Mkdir": true, "MkdirAll": true, "ReadDir": true, "Truncate": true,
}

// blockingFileMethods are *os.File methods that perform file I/O.
var blockingFileMethods = map[string]bool{
	"Read": true, "ReadAt": true, "Write": true, "WriteAt": true,
	"WriteString": true, "Sync": true, "Close": true, "Seek": true,
	"Truncate": true, "ReadFrom": true,
}

type lockChecker struct {
	pass  *Pass
	graph *CallGraph

	// names renders a lock object for diagnostics: pkg.Type.field for
	// struct fields, pkg.name for package vars, the bare name for locals.
	names map[types.Object]string

	// sites maps each call expression to its resolved callees.
	sites map[*ast.CallExpr][]CallEdge

	// summaries caches per-function facts for the transitive queries.
	summaries map[*types.Func]*lockSummary

	// orderEdges records "B acquired while holding A", first site wins;
	// orderList keeps insertion order for deterministic inversion reports.
	orderEdges map[[2]types.Object]token.Pos
	orderList  [][2]types.Object
	inProgress map[*types.Func]bool
}

// lockSummary is one function's contribution to the interprocedural facts.
type lockSummary struct {
	acquires []types.Object // locks acquired anywhere in the body
	blocking string         // first direct potentially-blocking op, "" if none
	// transitive results, memoized (computed = true once final)
	transBlocking   string
	transAcquires   []types.Object
	transComputed   bool
	transBlockingOK bool
}

func runLockcheck(pass *Pass) {
	prog := pass.Prog
	lc := &lockChecker{
		pass:       pass,
		graph:      prog.CallGraph(),
		names:      lockNames(prog),
		sites:      map[*ast.CallExpr][]CallEdge{},
		summaries:  map[*types.Func]*lockSummary{},
		orderEdges: map[[2]types.Object]token.Pos{},
		inProgress: map[*types.Func]bool{},
	}
	for _, fn := range lc.graph.Funcs {
		for _, e := range lc.graph.Callees(fn) {
			lc.sites[e.Site] = append(lc.sites[e.Site], e)
		}
	}
	for _, fn := range lc.graph.Funcs {
		lc.checkFunc(fn)
	}
	lc.reportInversions()
}

// lockNames builds the diagnostic rendering for every mutex-typed variable:
// fields get pkg.Type.field so the same lock reads identically wherever it
// is touched.
func lockNames(prog *Program) map[types.Object]string {
	names := map[types.Object]string{}
	for _, named := range moduleNamedTypes(prog) {
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if isMutexType(f.Type()) {
				names[f] = fmt.Sprintf("%s.%s.%s", named.Obj().Pkg().Name(), named.Obj().Name(), f.Name())
			}
		}
	}
	return names
}

func (lc *lockChecker) lockName(obj types.Object) string {
	if n, ok := lc.names[obj]; ok {
		return n
	}
	if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}

func isMutexType(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// lockOpOf decodes a call as a mutex operation: the lock variable and
// whether it acquires. The variable is the last named component of the
// receiver chain — `c.sched.mu.Lock()` resolves to the mu field of the
// sched struct type, which is exactly the cross-function identity the
// order and hold analyses need.
func (lc *lockChecker) lockOpOf(call *ast.CallExpr) (obj types.Object, acquire, ok bool) {
	info := lc.pass.Prog.Info
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	acquire, known := lockMethodOps[sel.Sel.Name]
	if !known {
		return nil, false, false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if s, selOK := info.Selections[sel]; selOK {
		fn, isFn = s.Obj().(*types.Func)
	}
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, false, false
	}
	switch recv := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		return info.ObjectOf(recv), acquire, true
	case *ast.SelectorExpr:
		if s, selOK := info.Selections[recv]; selOK && s.Kind() == types.FieldVal {
			return s.Obj(), acquire, true
		}
		return info.ObjectOf(recv.Sel), acquire, true
	}
	return nil, false, false
}

// directBlocking describes a call that blocks by itself (no module source
// behind it): sync Wait, time.Sleep, os file I/O.
func (lc *lockChecker) directBlocking(call *ast.CallExpr) string {
	info := lc.pass.Prog.Info
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return ""
	}
	var fn *types.Func
	if s, ok := info.Selections[sel]; ok {
		fn, _ = s.Obj().(*types.Func)
	} else {
		fn, _ = info.Uses[sel.Sel].(*types.Func)
	}
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "sync":
		if name == "Wait" {
			return "sync " + recvTypeName(fn) + ".Wait"
		}
	case "time":
		if name == "Sleep" {
			return "time.Sleep"
		}
	case "os":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if blockingFileMethods[name] && recvTypeName(fn) == "File" {
				return "os.File." + name + " (file I/O)"
			}
			return ""
		}
		if blockingOSFuncs[name] {
			return "os." + name + " (file I/O)"
		}
	}
	return ""
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// summary computes fn's direct facts: locks it acquires anywhere and the
// first directly-blocking operation, function literals excluded.
func (lc *lockChecker) summary(fn *types.Func) *lockSummary {
	if s, ok := lc.summaries[fn]; ok {
		return s
	}
	s := &lockSummary{}
	lc.summaries[fn] = s
	decl := lc.pass.Prog.declOf(fn)
	if decl == nil || decl.Body == nil {
		return s
	}
	seen := map[types.Object]bool{}
	inspectSkippingFuncLits(decl.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if obj, acquire, ok := lc.lockOpOf(n); ok {
				if acquire && obj != nil && !seen[obj] {
					seen[obj] = true
					s.acquires = append(s.acquires, obj)
				}
				return
			}
			if s.blocking == "" {
				s.blocking = lc.directBlocking(n)
			}
		case *ast.SendStmt:
			if s.blocking == "" {
				s.blocking = "channel send"
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && s.blocking == "" {
				s.blocking = "channel receive"
			}
		case *ast.SelectStmt:
			if s.blocking == "" && !selectHasDefault(n) {
				s.blocking = "select with no default"
			}
		case *ast.RangeStmt:
			if s.blocking == "" && isChannelExpr(lc.pass.Prog.Info, n.X) {
				s.blocking = "range over channel"
			}
		}
	})
	return s
}

// transitive resolves fn's interprocedural facts over the call graph,
// memoized, with a cycle guard (a recursion cycle contributes nothing
// beyond its members' direct facts).
func (lc *lockChecker) transitive(fn *types.Func) (blocking string, blockingOK bool, acquires []types.Object) {
	s := lc.summary(fn)
	if s.transComputed {
		return s.transBlocking, s.transBlockingOK, s.transAcquires
	}
	if lc.inProgress[fn] {
		return "", false, nil
	}
	lc.inProgress[fn] = true
	defer delete(lc.inProgress, fn)

	acqSeen := map[types.Object]bool{}
	for _, o := range s.acquires {
		acqSeen[o] = true
		acquires = append(acquires, o)
	}
	blocking, blockingOK = s.blocking, s.blocking != ""
	for _, e := range lc.graph.Callees(fn) {
		if lc.pass.Prog.declOf(e.Callee) == nil {
			continue
		}
		cb, cok, cacq := lc.transitive(e.Callee)
		if cok && !blockingOK {
			blocking = fmt.Sprintf("%s via %s", cb, funcDisplayName(e.Callee))
			blockingOK = true
		}
		for _, o := range cacq {
			if !acqSeen[o] {
				acqSeen[o] = true
				acquires = append(acquires, o)
			}
		}
	}
	// Only cache when no enclosing computation is mid-flight: inside a
	// cycle the partial answer would be wrong to memoize.
	if len(lc.inProgress) == 1 {
		s.transBlocking, s.transBlockingOK, s.transAcquires, s.transComputed = blocking, blockingOK, acquires, true
	}
	return blocking, blockingOK, acquires
}

// lockState is the abstract state at a program point: how often each lock
// is held, and how many releases defers have scheduled for function exit.
type lockState struct {
	held     map[types.Object]int
	deferred map[types.Object]int
}

func newLockState() *lockState {
	return &lockState{held: map[types.Object]int{}, deferred: map[types.Object]int{}}
}

func (st *lockState) clone() *lockState {
	c := newLockState()
	for k, v := range st.held {
		c.held[k] = v
	}
	for k, v := range st.deferred {
		c.deferred[k] = v
	}
	return c
}

// mergeMax joins two branch states conservatively: held on either side
// counts as held.
func (st *lockState) mergeMax(o *lockState) {
	for k, v := range o.held {
		if v > st.held[k] {
			st.held[k] = v
		}
	}
	for k, v := range o.deferred {
		if v > st.deferred[k] {
			st.deferred[k] = v
		}
	}
}

func (st *lockState) equal(o *lockState) bool {
	for k, v := range st.held {
		if o.held[k] != v {
			return false
		}
	}
	for k, v := range o.held {
		if st.held[k] != v {
			return false
		}
	}
	return true
}

// heldLocks lists the currently held locks in deterministic (name) order.
func (lc *lockChecker) heldLocks(st *lockState) []types.Object {
	var out []types.Object
	for obj, n := range st.held {
		if n > 0 {
			out = append(out, obj)
		}
	}
	sortObjectsByName(lc, out)
	return out
}

func sortObjectsByName(lc *lockChecker, objs []types.Object) {
	for i := 1; i < len(objs); i++ {
		for j := i; j > 0 && lc.lockName(objs[j]) < lc.lockName(objs[j-1]); j-- {
			objs[j], objs[j-1] = objs[j-1], objs[j]
		}
	}
}

// lockWalker runs the path-sensitive walk over one function.
type lockWalker struct {
	lc   *lockChecker
	fn   *types.Func
	decl *ast.FuncDecl
}

func (lc *lockChecker) checkFunc(fn *types.Func) {
	decl := lc.pass.Prog.declOf(fn)
	if decl == nil || decl.Body == nil {
		return
	}
	w := &lockWalker{lc: lc, fn: fn, decl: decl}
	st := newLockState()
	terminated := w.walkStmts(decl.Body.List, st)
	if !terminated {
		w.checkExit(st, decl.Body.Rbrace, "function exit")
	}
}

// checkExit reports locks still held once scheduled deferred releases are
// accounted for.
func (w *lockWalker) checkExit(st *lockState, pos token.Pos, where string) {
	var held []types.Object
	for obj, n := range st.held {
		if n-st.deferred[obj] > 0 {
			held = append(held, obj)
		}
	}
	sortObjectsByName(w.lc, held)
	for _, obj := range held {
		w.lc.pass.Reportf(pos, "mutex %s is still held at %s; release it on every path (or defer the unlock)", w.lc.lockName(obj), where)
	}
}

// walkStmts interprets a statement list, mutating st; the return value
// reports whether control definitely leaves the function (return, panic,
// os.Exit) so callers can drop the path from branch merges.
func (w *lockWalker) walkStmts(stmts []ast.Stmt, st *lockState) bool {
	for _, s := range stmts {
		if w.walkStmt(s, st) {
			return true
		}
	}
	return false
}

func (w *lockWalker) walkStmt(s ast.Stmt, st *lockState) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.checkExpr(s.X, st)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if isBuiltin(w.lc.pass.Prog.Info, call.Fun, "panic") {
				// Defers run during a panic, so a deferred unlock covers it;
				// a bare Lock does not.
				w.checkExit(st, s.Pos(), "this panic (only a deferred unlock runs during panicking)")
				return true
			}
			if fn := resolveCallee(w.lc.pass.Prog.Info, call); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "os" && fn.Name() == "Exit" {
				return true // process exit: lock state is moot
			}
		}
	case *ast.SendStmt:
		w.reportBlockingWhileHeld(st, s.Pos(), "channel send")
		w.checkExpr(s.Chan, st)
		w.checkExpr(s.Value, st)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.checkExpr(e, st)
		}
		for _, e := range s.Lhs {
			w.checkExpr(e, st)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.checkExpr(v, st)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		w.checkExpr(s.X, st)
	case *ast.DeferStmt:
		w.walkDefer(s, st)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.checkExpr(e, st)
		}
		w.checkExit(st, s.Pos(), "this return")
		return true
	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		w.checkExpr(s.Cond, st)
		thenSt := st.clone()
		thenTerm := w.walkStmts(s.Body.List, thenSt)
		elseSt := st.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.walkStmt(s.Else, elseSt)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			*st = *elseSt
		case elseTerm:
			*st = *thenSt
		default:
			thenSt.mergeMax(elseSt)
			*st = *thenSt
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			w.checkExpr(s.Cond, st)
		}
		bodySt := st.clone()
		w.walkStmts(s.Body.List, bodySt)
		if s.Post != nil {
			w.walkStmt(s.Post, bodySt)
		}
		if !bodySt.equal(st) {
			w.lc.pass.Reportf(s.Pos(), "loop body changes which mutexes are held between iterations")
		}
	case *ast.RangeStmt:
		if isChannelExpr(w.lc.pass.Prog.Info, s.X) {
			w.reportBlockingWhileHeld(st, s.Pos(), "range over channel")
		}
		w.checkExpr(s.X, st)
		bodySt := st.clone()
		w.walkStmts(s.Body.List, bodySt)
		if !bodySt.equal(st) {
			w.lc.pass.Reportf(s.Pos(), "loop body changes which mutexes are held between iterations")
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			w.checkExpr(s.Tag, st)
		}
		return w.walkClauses(s.Body, st, false)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		return w.walkClauses(s.Body, st, false)
	case *ast.SelectStmt:
		if !selectHasDefault(s) {
			w.reportBlockingWhileHeld(st, s.Pos(), "select with no default")
		}
		return w.walkClauses(s.Body, st, true)
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			w.checkExpr(a, st)
		}
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)
	}
	return false
}

// walkClauses handles switch/type-switch/select bodies: each clause runs on
// a fork of the entry state; non-terminating clauses merge. Without a
// default clause the entry state joins the merge (the switch may fall
// through every case); selects always take some clause.
func (w *lockWalker) walkClauses(body *ast.BlockStmt, st *lockState, isSelect bool) bool {
	var merged *lockState
	hasDefault := false
	allTerminate := true
	for _, c := range body.List {
		var stmts []ast.Stmt
		entrySt := st.clone()
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				w.checkExpr(e, entrySt)
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else if !isSelect {
				w.walkStmt(c.Comm, entrySt)
			} else if as, ok := c.Comm.(*ast.AssignStmt); ok {
				// The arm's receive is part of the select, not a separate
				// blocking point, but its operands still get checked.
				for _, e := range as.Rhs {
					w.checkExprSkipTopArrow(e, entrySt)
				}
			}
			stmts = c.Body
		}
		if !w.walkStmts(stmts, entrySt) {
			allTerminate = false
			if merged == nil {
				merged = entrySt
			} else {
				merged.mergeMax(entrySt)
			}
		}
	}
	covered := hasDefault || (isSelect && len(body.List) > 0)
	if allTerminate && covered && len(body.List) > 0 {
		return true
	}
	if merged != nil {
		if !covered {
			merged.mergeMax(st)
		}
		*st = *merged
	}
	return false
}

// walkDefer registers deferred releases: `defer mu.Unlock()` directly, and
// the net releases of a deferred closure body (`defer func() { mu.Unlock() }()`).
func (w *lockWalker) walkDefer(s *ast.DeferStmt, st *lockState) {
	if obj, acquire, ok := w.lc.lockOpOf(s.Call); ok {
		if !acquire && obj != nil {
			st.deferred[obj]++
		}
		return
	}
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		net := map[types.Object]int{}
		inspectSkippingFuncLits(lit.Body, func(n ast.Node) {
			if call, ok := n.(*ast.CallExpr); ok {
				if obj, acquire, ok := w.lc.lockOpOf(call); ok && obj != nil {
					if acquire {
						net[obj]--
					} else {
						net[obj]++
					}
				}
			}
		})
		for obj, n := range net {
			if n > 0 {
				st.deferred[obj] += n
			}
		}
		return
	}
	for _, a := range s.Call.Args {
		w.checkExpr(a, st)
	}
}

// checkExpr interprets one expression: lock operations mutate the state,
// blocking constructs and calls are checked against the held set, and
// resolved module calls contribute interprocedural blocking and
// lock-ordering facts. Function literals are not entered.
func (w *lockWalker) checkExpr(e ast.Expr, st *lockState) {
	if e == nil {
		return
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.reportBlockingWhileHeld(st, n.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			// Arguments first: they evaluate before the call.
			for _, a := range n.Args {
				ast.Inspect(a, visit)
			}
			ast.Inspect(n.Fun, visit)
			w.applyCall(n, st)
			return false
		}
		return true
	}
	ast.Inspect(e, visit)
}

// checkExprSkipTopArrow is checkExpr for a select arm's receive expression:
// the top-level <- belongs to the select and was already accounted for.
func (w *lockWalker) checkExprSkipTopArrow(e ast.Expr, st *lockState) {
	if ue, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
		w.checkExpr(ue.X, st)
		return
	}
	w.checkExpr(e, st)
}

// applyCall handles a single call expression against the current state.
func (w *lockWalker) applyCall(call *ast.CallExpr, st *lockState) {
	lc := w.lc
	if obj, acquire, ok := lc.lockOpOf(call); ok {
		if obj == nil {
			return
		}
		if acquire {
			for _, held := range lc.heldLocks(st) {
				if held == obj {
					lc.pass.Reportf(call.Pos(), "mutex %s acquired while already held: self-deadlock", lc.lockName(obj))
					continue
				}
				lc.recordOrder(held, obj, call.Pos())
			}
			st.held[obj]++
		} else if st.held[obj] > 0 {
			st.held[obj]--
		}
		return
	}
	if desc := lc.directBlocking(call); desc != "" {
		w.reportBlockingWhileHeld(st, call.Pos(), desc)
		return
	}
	held := lc.heldLocks(st)
	reported := false
	for _, e := range lc.sites[call] {
		if lc.pass.Prog.declOf(e.Callee) == nil {
			continue
		}
		blocking, blockingOK, acquires := lc.transitive(e.Callee)
		if blockingOK && !reported && len(held) > 0 {
			lc.pass.Reportf(call.Pos(), "call to %s while holding %s may block: %s",
				funcDisplayName(e.Callee), lc.lockName(held[0]), blocking)
			reported = true
		}
		for _, acq := range acquires {
			for _, h := range held {
				if h == acq {
					lc.pass.Reportf(call.Pos(), "call to %s while holding %s acquires it again: self-deadlock",
						funcDisplayName(e.Callee), lc.lockName(h))
					continue
				}
				lc.recordOrder(h, acq, call.Pos())
			}
		}
	}
}

func (w *lockWalker) reportBlockingWhileHeld(st *lockState, pos token.Pos, desc string) {
	held := w.lc.heldLocks(st)
	if len(held) == 0 {
		return
	}
	w.lc.pass.Reportf(pos, "potentially blocking %s while holding %s", desc, w.lc.lockName(held[0]))
}

// recordOrder notes lock `before` held while `after` is acquired.
func (lc *lockChecker) recordOrder(before, after types.Object, pos token.Pos) {
	key := [2]types.Object{before, after}
	if _, ok := lc.orderEdges[key]; ok {
		return
	}
	lc.orderEdges[key] = pos
	lc.orderList = append(lc.orderList, key)
}

// reportInversions flags every lock pair acquired in both orders.
func (lc *lockChecker) reportInversions() {
	reported := map[[2]types.Object]bool{}
	for _, key := range lc.orderList {
		rev := [2]types.Object{key[1], key[0]}
		revPos, ok := lc.orderEdges[rev]
		if !ok || reported[key] || reported[rev] {
			continue
		}
		reported[key] = true
		fwd := lc.pass.Prog.Fset.Position(revPos)
		lc.pass.Reportf(lc.orderEdges[key],
			"lock-order inversion: %s acquired while holding %s here, but the opposite order at %s:%d",
			lc.lockName(key[1]), lc.lockName(key[0]), fwd.Filename, fwd.Line)
	}
}

// inspectSkippingFuncLits walks n without entering function literals.
func inspectSkippingFuncLits(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func isChannelExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, ok = tv.Type.Underlying().(*types.Chan)
	return ok
}
