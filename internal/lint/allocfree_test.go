package lint

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestParseEscapeDiagnosticsPaths feeds the parser compiler output as the
// go command replays it from builds in different directories: every path
// form naming a file of the package resolves to that file in the package
// directory, and diagnostics from other directories are dropped.
func TestParseEscapeDiagnosticsPaths(t *testing.T) {
	dir := filepath.Join(string(filepath.Separator)+"src", "mod", "internal", "partition")
	out := strings.Join([]string{
		"# goldilocks/internal/partition",
		"./csr.go:402:15: make([]int32, n, ~r0) escapes to heap",
		"internal/partition/refine.go:262:4: moved to heap: wg",
		filepath.Join(dir, "bisect.go") + ":7:9: &x escapes to heap",
		"./csr.go:402:15: make([]int32, n, ~r0) escapes to heap",
		"internal/graph/csr.go:12:3: make([]int, n) escapes to heap",
		"../graph/csr.go:13:3: make([]int, n) escapes to heap",
		"/elsewhere/internal/partition/csr.go:14:3: make([]int, n) escapes to heap",
		"internal/partition/csr.go:20:6: can inline grow",
	}, "\n")
	got, err := parseEscapeDiagnostics(dir, strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := []escapeDiag{
		{file: filepath.Join(dir, "csr.go"), line: 402, col: 15, msg: "make([]int32, n, ~r0) escapes to heap"},
		{file: filepath.Join(dir, "refine.go"), line: 262, col: 4, msg: "moved to heap: wg"},
		{file: filepath.Join(dir, "bisect.go"), line: 7, col: 9, msg: "&x escapes to heap"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed\n%+v\nwant\n%+v", got, want)
	}
}
