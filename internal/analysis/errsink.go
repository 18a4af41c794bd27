package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Errsink guards the durability surface: an experiment campaign that runs
// for hours and silently loses its results to a full disk is worse than one
// that crashes. Three rules, all about *discarded* error returns (a call
// used as a bare statement, deferred, or with every error result assigned
// to _):
//
//  1. The named durability surface must be checked: AtomicWriteFile, the
//     report/CSV/manifest/trace writers (WriteReport, WriteCSV, WriteRDCSV,
//     WriteFile, WriteJSON, WritePrometheus, Markdown, CSV, Flush) and
//     append-only log writes (Append) — any module function or method
//     with one of those names that returns an error.
//  2. (*os.File).Close on a write path — a file this function created for
//     writing, wrote to, or handed to a writer — buffers the last chance to
//     observe a write error; discarding it loses data silently. Close on
//     read paths is exempt, as is Close inside an error-cleanup block
//     (`if err != nil { f.Close() }` — the operation already failed).
//     Close methods of module types that return an error get the same
//     treatment without the write-path gate: a module type returning an
//     error from Close does so deliberately.
//  3. Inside a durability writer itself — a module function that returns an
//     error and takes an io.Writer parameter — fmt.Fprint* / Write /
//     io.WriteString calls targeting that parameter must not drop their
//     errors; the sticky errWriter pattern is the approved fix. cmd/
//     packages are exempt from this rule only: a CLI run() printing its
//     progress to the stdout parameter is terminal UI, not durability —
//     the files a command persists flow through AtomicWriteFile and the
//     named writers, which rules 1 and 2 cover everywhere.
var Errsink = &Analyzer{
	Name: "errsink",
	Doc:  "durability-surface errors (AtomicWriteFile, report/CSV/trace writers, log appends, Close on write paths) must not be discarded",
	Run:  runErrsink,
}

// durabilityNames is the convention-driven surface: module functions and
// methods with these names that return an error are durability calls.
var durabilityNames = map[string]bool{
	"AtomicWriteFile": true, "WriteReport": true, "WriteCSV": true,
	"WriteRDCSV": true, "WriteFile": true, "WriteJSON": true,
	"WritePrometheus": true, "Markdown": true, "CSV": true,
	"Flush": true, "Append": true,
}

func runErrsink(pass *Pass) {
	for _, pkg := range pass.Prog.Packages {
		isCmd := pkg.Name == "main" || strings.Contains(pkg.Path, "/cmd/")
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkErrsinkFunc(pass, fd, isCmd)
			}
		}
	}
}

func checkErrsinkFunc(pass *Pass, fd *ast.FuncDecl, isCmd bool) {
	info := pass.Prog.Info
	writeFiles := writePathFiles(info, fd.Body)
	var writerParam *types.Var
	if !isCmd {
		writerParam = durabilityWriterParam(info, fd)
	}

	// The walk tracks whether we are inside an error-cleanup block
	// (`if err != nil { ... }`): a dropped Close there is the failure path
	// of an operation whose error is already being returned.
	var walk func(n ast.Node, inCleanup bool)
	checkDiscarded := func(call *ast.CallExpr, deferred, inCleanup bool) {
		fn := calledFunc(info, call)
		if fn == nil || !returnsError(fn) {
			return
		}
		name := fn.Name()
		switch {
		case durabilityNames[name] && pass.Prog.IsModulePackage(fn.Pkg()):
			pass.Reportf(call.Pos(), "error from %s discarded; the durability surface must be checked", funcDisplayName(fn))
		case name == "Close":
			if inCleanup {
				return
			}
			recv := receiverOf(info, call)
			switch {
			case isOSFile(recvType(fn)):
				if recv != nil && writeFiles[recv] {
					pass.Reportf(call.Pos(), "error from Close discarded on a write path: the final flush error is lost")
				}
			case pass.Prog.IsModulePackage(fn.Pkg()) && recvType(fn) != nil:
				pass.Reportf(call.Pos(), "error from %s discarded; a module Close returning error does so deliberately", funcDisplayName(fn))
			}
		case writerParam != nil && !deferred:
			if target := writeTargetOf(info, call, fn); target != nil && target == writerParam {
				pass.Reportf(call.Pos(), "write error to the %s parameter discarded inside a durability writer; use the sticky errWriter pattern", writerParam.Name())
			}
		}
	}
	walk = func(n ast.Node, inCleanup bool) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
				checkDiscarded(call, false, inCleanup)
			}
			walkChildren(n, walk, inCleanup)
		case *ast.DeferStmt:
			checkDiscarded(n.Call, true, inCleanup)
			walkChildren(n, walk, inCleanup)
		case *ast.GoStmt:
			checkDiscarded(n.Call, false, inCleanup)
			walkChildren(n, walk, inCleanup)
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok && allErrorResultsBlank(info, n, call) {
					checkDiscarded(call, false, inCleanup)
				}
			}
			walkChildren(n, walk, inCleanup)
		case *ast.IfStmt:
			if n.Init != nil {
				walk(n.Init, inCleanup)
			}
			walk(n.Cond, inCleanup)
			walk(n.Body, inCleanup || isErrorNilCheck(info, n.Cond))
			if n.Else != nil {
				walk(n.Else, inCleanup)
			}
		default:
			walkChildren(n, walk, inCleanup)
		}
	}
	walk(fd.Body, false)
}

// walkChildren recurses into n's direct children preserving the cleanup
// flag.
func walkChildren(n ast.Node, walk func(ast.Node, bool), inCleanup bool) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			walk(c, inCleanup)
		}
		return false
	})
}

// writePathFiles collects the *os.File variables this function uses for
// writing: opened with os.Create/CreateTemp/OpenFile, written through, or
// handed to another call (a writer wrapping it). Aliases propagate through
// plain assignments.
func writePathFiles(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	aliases := map[types.Object][]types.Object{} // lhs -> rhs objects
	mark := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil && isOSFile(obj.Type()) {
				out[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok {
					if isWriteOpen(info, call) {
						mark(lhs)
					}
					continue
				}
				lo := objectOfIdent(info, lhs)
				ro := objectOfIdent(info, n.Rhs[i])
				if lo != nil && ro != nil && isOSFile(lo.Type()) {
					aliases[lo] = append(aliases[lo], ro)
					aliases[ro] = append(aliases[ro], lo)
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Write", "WriteString", "WriteAt", "Sync", "Truncate", "ReadFrom":
					mark(sel.X)
				}
			}
			// A file passed to any call is assumed handed to a writer.
			for _, a := range n.Args {
				mark(a)
			}
		}
		return true
	})
	// Spread the mark along alias chains until nothing changes: every file
	// aliased, however indirectly, to a write-path file is one too. A fixed
	// number of sweeps would reach further along a chain in some map
	// orders than in others.
	for changed := true; changed; {
		changed = false
		for lo, ros := range aliases {
			for _, ro := range ros {
				if out[lo] != out[ro] {
					out[lo], out[ro] = true, true
					changed = true
				}
			}
		}
	}
	return out
}

// isWriteOpen reports whether call opens a file for writing: os.Create,
// os.CreateTemp, or os.OpenFile with flags that name a write mode (an
// unresolvable flag expression counts as writing, conservatively).
func isWriteOpen(info *types.Info, call *ast.CallExpr) bool {
	fn := calledFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
		return false
	}
	switch fn.Name() {
	case "Create", "CreateTemp":
		return true
	case "OpenFile":
		if len(call.Args) < 2 {
			return true
		}
		hasWriteFlag := false
		readOnly := true
		ast.Inspect(call.Args[1], func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				switch id.Name {
				case "O_WRONLY", "O_RDWR", "O_APPEND", "O_CREATE", "O_TRUNC":
					hasWriteFlag = true
					readOnly = false
				case "O_RDONLY":
				default:
					readOnly = false
				}
			}
			return true
		})
		return hasWriteFlag || !readOnly
	}
	return false
}

// durabilityWriterParam returns the io.Writer parameter of a module
// function that returns an error — the signature shape of the durability
// writers rule 3 applies to.
func durabilityWriterParam(info *types.Info, fd *ast.FuncDecl) *types.Var {
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok || !returnsError(fn) {
		return nil
	}
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if isIOWriter(p.Type()) {
			return p
		}
	}
	return nil
}

// writeTargetOf resolves the writer a discarded write call targets:
// fmt.Fprint*/io.WriteString first arguments, or the receiver of a
// Write/WriteString method.
func writeTargetOf(info *types.Info, call *ast.CallExpr, fn *types.Func) types.Object {
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	switch {
	case pkgPath == "fmt" && strings.HasPrefix(fn.Name(), "Fprint"),
		pkgPath == "io" && fn.Name() == "WriteString":
		if len(call.Args) > 0 {
			return objectOfIdent(info, call.Args[0])
		}
	case fn.Name() == "Write" || fn.Name() == "WriteString":
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return objectOfIdent(info, sel.X)
		}
	}
	return nil
}

// isErrorNilCheck matches conditions that gate an error-cleanup block:
// any `x != nil` comparison with an error-typed operand.
func isErrorNilCheck(info *types.Info, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || found {
			return !found
		}
		if be.Op.String() != "!=" {
			return true
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			if tv, ok := info.Types[side]; ok && tv.Type != nil && isErrorType(tv.Type) {
				found = true
			}
		}
		return !found
	})
	return found
}

func calledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func receiverOf(info *types.Info, call *ast.CallExpr) types.Object {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return objectOfIdent(info, sel.X)
	}
	return nil
}

func recvType(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

func objectOfIdent(info *types.Info, e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return info.ObjectOf(id)
	}
	return nil
}

func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

// allErrorResultsBlank reports whether an assignment discards every
// error-typed result of call (`_ = f()` / `n, _ := f()` with err blank).
func allErrorResultsBlank(info *types.Info, as *ast.AssignStmt, call *ast.CallExpr) bool {
	fn := calledFunc(info, call)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if sig.Results().Len() != len(as.Lhs) {
		return false
	}
	anyErr := false
	for i := 0; i < sig.Results().Len(); i++ {
		if !isErrorType(sig.Results().At(i).Type()) {
			continue
		}
		anyErr = true
		if id, ok := as.Lhs[i].(*ast.Ident); !ok || id.Name != "_" {
			return false
		}
	}
	return anyErr
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func isOSFile(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	} else if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "File" && obj.Pkg() != nil && obj.Pkg().Path() == "os"
}

func isIOWriter(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Writer" && obj.Pkg() != nil && obj.Pkg().Path() == "io"
}
