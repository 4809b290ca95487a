package box

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestByStreamKeepsStreamOrder checks the small stream-keyed table
// against a map: after each set and del the entries are the map's, in
// ascending stream order.
func TestByStreamKeepsStreamOrder(t *testing.T) {
	var tab byStream[int]
	ref := map[uint32]int{}
	for i, id := range []uint32{7, 3, 9, 3, 1, 7, 12, 9, 0} {
		if i%3 == 2 {
			tab.del(id)
			delete(ref, id)
		} else {
			tab.set(id, i)
			ref[id] = i
		}
		var ids []uint32
		for _, e := range tab {
			ids = append(ids, e.id)
			if v, ok := ref[e.id]; !ok || v != e.v {
				t.Fatalf("step %d: entry %d = %d, the map has %d (%v)", i, e.id, e.v, v, ok)
			}
		}
		if len(ids) != len(ref) || !slices.IsSorted(ids) {
			t.Fatalf("step %d: ids %v, want the map's %d in ascending order", i, ids, len(ref))
		}
		for id, v := range ref {
			if got, ok := tab.get(id); !ok || got != v {
				t.Fatalf("step %d: get(%d) = %d, %v; want %d", i, id, got, ok, v)
			}
		}
		if _, ok := tab.get(100); ok {
			t.Fatalf("step %d: get of an absent stream found one", i)
		}
	}
}

// TestNoStreamKeyedMaps holds the package to its rule that per-stream
// tables are byStream slices, not maps: its non-test code names no map
// keyed by uint32, the type of a stream number and a VCI.
func TestNoStreamKeyedMaps(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if m, ok := n.(*ast.MapType); ok {
				if key, ok := m.Key.(*ast.Ident); ok && key.Name == "uint32" {
					t.Errorf("%s: a map keyed by uint32; keep a per-stream table in a byStream", fset.Position(m.Pos()))
				}
			}
			return true
		})
	}
}
