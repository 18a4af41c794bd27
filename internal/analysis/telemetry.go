package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
)

// metricNamePattern is the exposition contract: every metric belongs to one
// of the simulator's subsystem families, so Prometheus scrapes and the
// Stats-reconciliation tests can enumerate what they expect.
// The inspect and trace families belong to the decision-level introspection
// layer (internal/inspect): attribution roll-ups and span-trace health. The
// plan family covers keep-plan traffic: the artifact cache's
// (internal/artifact, the only kind the cache stores) and the experiment
// Context's in-memory plan memo (internal/experiments). The behavior and
// timing families count the same Context's behaviour-run, timing-run and
// timing-path memos.
var metricNamePattern = regexp.MustCompile(`^(uopcache|frontend|policy|offline|flow|parallel|inspect|trace|plan|behavior|timing)_[a-z0-9_]+$`)

// Telemetry enforces that metric names handed to the telemetry registry
// (Registry.Counter / Gauge / Histogram methods of a package named
// "telemetry") are compile-time constants matching metricNamePattern. A name
// computed at runtime can silently fork a metric family between runs; a name
// outside the family prefixes breaks the exposition contract the
// Stats-reconciliation tests assert against.
var Telemetry = &Analyzer{
	Name: "telemetry",
	Doc:  "metric names must be compile-time constants matching ^(uopcache|frontend|policy|offline|flow|parallel|inspect|trace|plan|behavior|timing)_[a-z0-9_]+$",
	Run:  runTelemetry,
}

func runTelemetry(pass *Pass) {
	info := pass.Prog.Info
	for _, pkg := range pass.Prog.Packages {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch sel.Sel.Name {
				case "Counter", "Gauge", "Histogram":
				default:
					return true
				}
				if !isTelemetryRegistryMethod(info, sel) {
					return true
				}
				arg := call.Args[0]
				tv, ok := info.Types[arg]
				if !ok {
					return true
				}
				if tv.Value == nil || tv.Value.Kind() != constant.String {
					pass.Reportf(arg.Pos(), "metric name passed to Registry.%s is not a compile-time constant; runtime-computed names fork metric families between runs", sel.Sel.Name)
					return true
				}
				name := constant.StringVal(tv.Value)
				if !metricNamePattern.MatchString(name) {
					pass.Reportf(arg.Pos(), "metric name %q does not match %s", name, metricNamePattern)
				}
				return true
			})
		}
	}
}

// isTelemetryRegistryMethod reports whether sel resolves to a method on a
// type named Registry declared in a package named "telemetry".
func isTelemetryRegistryMethod(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	recv := s.Recv()
	if ptr, ok := recv.Underlying().(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Registry" && obj.Pkg() != nil && obj.Pkg().Name() == "telemetry"
}
