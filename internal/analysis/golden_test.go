package analysis

import (
	"go/ast"
	"maps"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The golden harness: each fixture directory under testdata/src is a small
// self-contained package; `// want "regex"` trailing comments state the
// diagnostics expected on their line. Every diagnostic must match a want and
// every want must be matched.

var wantQuoted = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

func loadFixture(t *testing.T, dirs ...string) *Program {
	t.Helper()
	patterns := make([]string, len(dirs))
	for i, d := range dirs {
		patterns[i] = "./testdata/src/" + d
	}
	prog, err := Load(".", patterns...)
	if err != nil {
		t.Fatalf("Load(%v): %v", patterns, err)
	}
	return prog
}

func collectWants(t *testing.T, prog *Program) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					quoted := wantQuoted.FindAllString(text, -1)
					if len(quoted) == 0 {
						t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
					}
					for _, q := range quoted {
						s, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
						}
						re, err := regexp.Compile(s)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, s, err)
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	return wants
}

func runGolden(t *testing.T, a *Analyzer, dirs ...string) {
	t.Helper()
	prog := loadFixture(t, dirs...)
	wants := collectWants(t, prog)
	for _, d := range Run(prog, []*Analyzer{a}) {
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.re)
		}
	}
}

func TestDeterminismGolden(t *testing.T) { runGolden(t, Determinism, "determinism") }

// TestGoroutineGolden covers the raw-goroutine rule: `go` statements in
// scoped packages are flagged wherever they appear; fan-out must go through
// internal/parallel.
func TestGoroutineGolden(t *testing.T) { runGolden(t, Determinism, "goroutine") }

// TestDeterminismScoping proves packages outside determinismScope are exempt:
// the fixture repeats every banned construct and carries zero wants.
func TestDeterminismScoping(t *testing.T) { runGolden(t, Determinism, "outofscope") }

func TestHotpathGolden(t *testing.T) { runGolden(t, Hotpath, "hotpath") }

func TestRegistryPolicyGolden(t *testing.T) { runGolden(t, Registry, "registrypolicy") }

func TestRegistryExperimentsGolden(t *testing.T) { runGolden(t, Registry, "registryexp") }

func TestTelemetryGolden(t *testing.T) { runGolden(t, Telemetry, "telemetryfix") }

// TestTelemetryInspectGolden covers the introspection metric families
// (inspect_*, trace_*) added with the decision-level introspection layer.
func TestTelemetryInspectGolden(t *testing.T) { runGolden(t, Telemetry, "telemetryinspect") }

func TestExhaustiveGolden(t *testing.T) { runGolden(t, Exhaustive, "exhaustive") }

func TestLockcheckGolden(t *testing.T) { runGolden(t, Lockcheck, "lockcheck") }

// TestCtxflowGolden loads the library fixture and the main-package fixture
// together: the same rules produce findings in one and stay silent (except
// for the fresh-ctx-shadowing rule) in the other.
func TestCtxflowGolden(t *testing.T) { runGolden(t, Ctxflow, "ctxflow", "ctxflowcmd") }

func TestErrsinkGolden(t *testing.T) { runGolden(t, Errsink, "errsink") }

// TestIgnoreDirectives exercises the suppression contract end to end: valid
// directives (above the line and trailing) suppress, malformed ones do not
// and are themselves reported as "simlint" diagnostics.
func TestIgnoreDirectives(t *testing.T) {
	prog := loadFixture(t, "ignore")
	diags := Run(prog, All())

	var simlint, determinism []string
	for _, d := range diags {
		switch d.Analyzer {
		case "simlint":
			simlint = append(simlint, d.Message)
		case "determinism":
			determinism = append(determinism, d.String())
		default:
			t.Errorf("unexpected analyzer %q: %s", d.Analyzer, d)
		}
	}

	wantProblems := []string{
		"gives no reason",
		"unknown analyzer",
		"names no analyzer",
	}
	for _, w := range wantProblems {
		found := false
		for _, m := range simlint {
			if strings.Contains(m, w) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no simlint directive problem containing %q; got %q", w, simlint)
		}
	}
	if len(simlint) != len(wantProblems) {
		t.Errorf("got %d directive problems, want %d: %q", len(simlint), len(wantProblems), simlint)
	}

	// The well-formed directives in a and b suppress their time.Now findings;
	// the malformed ones in c and d do not.
	if len(determinism) != 2 {
		t.Errorf("got %d unsuppressed determinism findings, want 2 (c and d): %v", len(determinism), determinism)
	}
}

// TestStaleSuppression covers the rot guard: a well-formed directive that
// absorbs no finding is itself reported, and absorbed findings surface in
// Result.Suppressed with the directive's justification.
func TestStaleSuppression(t *testing.T) {
	prog := loadFixture(t, "staleignore")
	res := RunAll(prog, All())

	wantStale := map[int]bool{16: false, 20: false}
	for _, d := range res.Diagnostics {
		if d.Analyzer != "simlint" || !strings.Contains(d.Message, "suppresses nothing") {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		seen, tracked := wantStale[d.Pos.Line]
		if !tracked || seen {
			t.Errorf("stale finding at unexpected line %d: %s", d.Pos.Line, d)
			continue
		}
		wantStale[d.Pos.Line] = true
	}
	for line, seen := range wantStale {
		if !seen {
			t.Errorf("no stale-suppression finding at line %d", line)
		}
	}

	if len(res.Suppressed) != 1 {
		t.Fatalf("got %d suppressed findings, want 1: %v", len(res.Suppressed), res.Suppressed)
	}
	s := res.Suppressed[0]
	if s.Analyzer != "determinism" || s.Justification != "wall-clock used only for log timestamps" {
		t.Errorf("suppressed finding = %q justification %q; want determinism / the directive reason", s.Analyzer, s.Justification)
	}
}

// TestRepoClean is the enforcement backstop: the whole module must be
// simlint-clean, so a regression fails `go test` even where CI's dedicated
// simlint job is not run. It also pins the suppression inventory, per
// analyzer, to the one ANALYSIS.md lists: a new //simlint:ignore has to
// change this test in the same diff.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	prog, err := Load(".", "uopsim/...")
	if err != nil {
		t.Fatalf("Load(uopsim/...): %v", err)
	}
	res := RunAll(prog, All())
	for _, d := range res.Diagnostics {
		t.Errorf("%s", d)
	}
	suppressed := map[string]int{}
	for _, s := range res.Suppressed {
		suppressed[s.Analyzer]++
	}
	if want := map[string]int{"ctxflow": 2, "determinism": 2, "telemetry": 1}; !maps.Equal(suppressed, want) {
		for _, s := range res.Suppressed {
			t.Logf("suppressed %s: %s", s.Diagnostic, s.Justification)
		}
		t.Errorf("suppressions per analyzer %v, want %v", suppressed, want)
	}

	// Reconcile the static hot-path contract with the dynamic AllocsPerRun
	// tests: the annotations the suite enforces must actually be present on
	// the entry points the benchmarks measure.
	wantMarked := map[string]bool{
		"Lookup": false, "Insert": false, "servePW": false,
	}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && isHotpathMarked(fd) {
					if _, tracked := wantMarked[fd.Name.Name]; tracked {
						wantMarked[fd.Name.Name] = true
					}
				}
			}
		}
	}
	for name, seen := range wantMarked {
		if !seen {
			t.Errorf("expected a //simlint:hotpath marker on %s", name)
		}
	}
}
