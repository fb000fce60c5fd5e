package planetp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// dormant names mechanisms that were deleted because no caller needed them
// or the ledger showed no benefit (DESIGN §4c, §4f, §4i): the IPF/rank
// cache, the fan-out knobs, the WAL's group commit, core's id -> key map,
// per-peer row probes, the digest probe tier between Sweep and Contains,
// the contact-group knob and its iteration count, and the in-process
// brokerage with its handoff and watch list. One of them named again in
// non-test Go is a second path coming back.
var dormant = regexp.MustCompile(`IPFCache|VersionedView|SyncEvery|syncDone|Options\.Concurrency|StopWindow|keyOf|RowView|digestRows|` +
	`DigestView|probesDigests|ProbeDigests|ContainsAllDigests|GroupSize|StopIterations|NewService|LeaveGraceful|PutUntil|AddWatch`)

// source is one parsed non-test Go file of the module proper.
type source struct {
	path string // slash-separated, relative to the module root
	text []byte
	file *ast.File
	fset *token.FileSet
}

// moduleSources parses every non-test .go file under internal/ and cmd/,
// and the root package's.
func moduleSources(t *testing.T) []source {
	t.Helper()
	var paths []string
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				paths = append(paths, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	top, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range top {
		if !strings.HasSuffix(path, "_test.go") {
			paths = append(paths, path)
		}
	}
	fset := token.NewFileSet()
	var out []source
	for _, path := range paths {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		file, err := parser.ParseFile(fset, path, text, 0)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, source{path: filepath.ToSlash(path), text: text, file: file, fset: fset})
	}
	if len(out) < 50 {
		t.Fatalf("found %d source files; run from the module root", len(out))
	}
	return out
}

// at renders a position as path:line.
func (s source) at(pos token.Pos) string {
	return s.path + ":" + strconv.Itoa(s.fset.Position(pos).Line)
}

// TestNothingDormant keeps deleted mechanisms deleted and single decisions
// single, over the source tree.
func TestNothingDormant(t *testing.T) {
	srcs := moduleSources(t)
	walks, markOffline := 0, 0
	for _, s := range srcs {
		for i, line := range strings.Split(string(s.text), "\n") {
			if name := dormant.FindString(line); name != "" {
				t.Errorf("%s:%d: deleted mechanism %s named again", s.path, i+1, name)
			}
		}
		// The transport speaks hand-written frames (§4k): gob is not back
		// on the wire.
		if strings.HasPrefix(s.path, "internal/transport/") {
			for _, imp := range s.file.Imports {
				if imp.Path.Value == `"encoding/gob"` {
					t.Errorf("%s: encoding/gob imported by the transport", s.at(imp.Pos()))
				}
			}
		}
		// A Compact probe scans one bucket (§4i): no binary search is back.
		if s.path == "internal/bloom/compact.go" && strings.Contains(string(s.text), "sort.Search") {
			t.Errorf("%s: sort.Search is back in Compact's probe", s.path)
		}
		ast.Inspect(s.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// The index walk stays off the peer mutex (§4f): no p.mu
				// inside localTopK or localQuery.
				if !strings.HasPrefix(s.path, "internal/core/") || n.Recv == nil || n.Body == nil ||
					n.Name.Name != "localTopK" && n.Name.Name != "localQuery" {
					return true
				}
				walks++
				body := s.text[s.fset.Position(n.Body.Pos()).Offset:s.fset.Position(n.Body.End()).Offset]
				if strings.Contains(string(body), "p.mu.") {
					t.Errorf("%s: %s takes p.mu", s.at(n.Pos()), n.Name.Name)
				}
			case *ast.CallExpr:
				// One decider on reachability (§4d): only gossip.Node turns
				// contact outcomes into an off-line mark.
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "MarkOffline" {
					markOffline++
					if s.path != "internal/gossip/node.go" {
						t.Errorf("%s: MarkOffline called outside internal/gossip/node.go", s.at(n.Pos()))
					}
				}
			}
			return true
		})
	}
	// A rename must not switch the scoped checks off.
	if walks != 2 {
		t.Errorf("found %d of core's localTopK/localQuery; the p.mu check needs both", walks)
	}
	if markOffline == 0 {
		t.Error("no MarkOffline call in internal/gossip/node.go; the reachability check sees nothing")
	}
}
