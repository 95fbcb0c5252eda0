package lint

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// HotPathDirective is the annotation that opts a function into the
// allocation-free contract. It must appear as its own comment line in the
// function's doc comment:
//
//	//goldilocks:hotpath
//	func (a *levelArena) routeHalves(...) { ... }
//
// The directive follows the Go toolchain's //go:... form (no space after
// //), so gofmt keeps it attached to the declaration.
const HotPathDirective = "//goldilocks:hotpath"

// AllocFreeAnalyzer proves the PR 5 steady-state contract at compile time:
// a function annotated //goldilocks:hotpath must not heap-allocate. The
// package is compiled with -gcflags=-m and the escape-analysis diagnostics
// (`... escapes to heap`, `moved to heap: x`) are attributed back to the
// annotated functions by source position; any hit is a lint error.
//
// Two attribution properties make the per-line proof work:
//
//   - the arena growth helpers (growI32, growF, fmScratch.grow, ...) are
//     small enough that the compiler inlines them into their callers, so
//     their cold-start `make` calls surface at the *call line* inside the
//     annotated function — which is exactly where the sanctioned
//     amortized-growth waiver belongs;
//   - a diagnostic inside an unannotated helper stays at the helper's own
//     lines and is ignored, so shared plumbing is not double-reported.
//
// Known cold-start allocations (arena growth on capacity miss, the
// per-level goroutine fan-out bookkeeping, traced-only span events, panic
// paths) are waived in place with //lint:ignore allocfree <reason>; the
// stale-waiver check keeps those waivers honest when the compiler stops
// reporting the line. Unlike the determinism analyzers, allocfree is not
// scoped to DeterministicPackages — the annotation is an explicit opt-in
// wherever it appears.
var AllocFreeAnalyzer = &Analyzer{
	Name: "allocfree",
	Doc: "compiles the package with -gcflags=-m and reports any escape-analysis " +
		"heap allocation inside a //goldilocks:hotpath-annotated function",
	Run: runAllocFree,
}

// escapeDiagRe matches one compiler escape diagnostic:
//
//	./csr.go:402:15: make([]int32, n, ~r0) escapes to heap
//	./recursive.go:262:4: moved to heap: wg
var escapeDiagRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*(?:escapes to heap|moved to heap).*)$`)

// funcRange is the source extent of one annotated function.
type funcRange struct {
	file     string
	from, to int // line range, inclusive
	name     string
}

func runAllocFree(pass *Pass) error {
	hot := hotPathRanges(pass)
	if len(hot) == 0 {
		return nil // no annotations: skip the compile entirely
	}
	diags, err := escapeDiagnostics(pass)
	if err != nil {
		return err
	}
	for _, d := range diags {
		for i := range hot {
			h := &hot[i]
			if d.file == h.file && h.from <= d.line && d.line <= h.to {
				pass.ReportAtf(token.Position{Filename: d.file, Line: d.line, Column: d.col},
					"heap allocation in //goldilocks:hotpath function %s: %s; keep the hot path on arena memory or waive with //lint:ignore allocfree <reason>",
					h.name, d.msg)
				break
			}
		}
	}
	return nil
}

// hotPathRanges collects the file/line extents of every function whose doc
// comment carries the //goldilocks:hotpath directive.
func hotPathRanges(pass *Pass) []funcRange {
	var out []funcRange
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			annotated := false
			for _, c := range fd.Doc.List {
				if strings.TrimSpace(c.Text) == HotPathDirective {
					annotated = true
					break
				}
			}
			if !annotated {
				continue
			}
			start := pass.Fset.Position(fd.Pos())
			end := pass.Fset.Position(fd.End())
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				if t := recvTypeName(fd.Recv.List[0].Type); t != "" {
					name = t + "." + name
				}
			}
			out = append(out, funcRange{file: start.Filename, from: start.Line, to: end.Line, name: name})
		}
	}
	return out
}

// recvTypeName extracts the bare receiver type name from a receiver type
// expression (*levelArena → "levelArena").
func recvTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(e.X)
	}
	return ""
}

// escapeDiag is one parsed compiler escape diagnostic, resolved to an
// absolute file path.
type escapeDiag struct {
	file string
	line int
	col  int
	msg  string
}

// escapeDiagnostics compiles the pass's package with -gcflags=-m in its
// source directory and parses the escape-analysis diagnostics. The flag
// applies only to the named package (the Go command's per-pattern gcflags
// rule), so dependencies build from cache without diagnostic noise.
func escapeDiagnostics(pass *Pass) ([]escapeDiag, error) {
	args := []string{"build", "-gcflags=-m"}
	if pass.Pkg != nil && pass.Pkg.Name() == "main" {
		// A main package would drop its binary into the source dir.
		args = append(args, "-o", os.DevNull)
	}
	args = append(args, ".")
	cmd := exec.Command("go", args...)
	cmd.Dir = pass.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: allocfree: go build -gcflags=-m in %s: %v\n%s",
			pass.Dir, err, stderr.String())
	}
	return parseEscapeDiagnostics(pass.Dir, &stderr)
}

// parseEscapeDiagnostics parses compiler escape diagnostics for the
// package in dir. The go command replays cached compiler output with the
// paths of the build that produced it: package-relative ("./csr.go") from
// the package directory, root-relative ("internal/partition/csr.go") from
// the module root, or absolute. A diagnostic belongs to the package when
// its directory is dir or a trailing part of it, and it resolves by base
// name to the file in dir; diagnostics in other directories are dropped.
func parseEscapeDiagnostics(dir string, r io.Reader) ([]escapeDiag, error) {
	dir = filepath.Clean(dir)
	var out []escapeDiag
	seen := make(map[escapeDiag]bool)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		m := escapeDiagRe.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		fileDir := filepath.Dir(m[1])
		inPkg := fileDir == "." || fileDir == dir ||
			!filepath.IsAbs(fileDir) && strings.HasSuffix(dir, string(filepath.Separator)+fileDir)
		if !inPkg {
			continue
		}
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		d := escapeDiag{file: filepath.Join(dir, filepath.Base(m[1])), line: line, col: col, msg: m[4]}
		// The compiler reports a helper's allocation twice when the helper
		// is both compiled standalone and inlined at the same position.
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out, sc.Err()
}
