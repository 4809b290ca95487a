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

// TestNoStreamKeyedMaps holds the layers to their rule that a stream's
// state lives in its own record, found in a per-stream table, and not
// in a map beside it: the non-test code of box, whose tables are
// byStream slices, and of mixer and degrade names no map keyed by
// uint32, the type of a stream number and a VCI, and no struct of
// fabric keeps one in a field (Port.IngressCopies builds one for its
// readers and keeps none).
func TestNoStreamKeyedMaps(t *testing.T) {
	for _, pkg := range []struct {
		dir        string
		fieldsOnly bool
	}{{".", false}, {"../mixer", false}, {"../degrade", false}, {"../fabric", true}} {
		files, err := filepath.Glob(filepath.Join(pkg.dir, "*.go"))
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
				if st, ok := n.(*ast.StructType); ok && pkg.fieldsOnly {
					for _, fd := range st.Fields.List {
						ast.Inspect(fd.Type, func(n ast.Node) bool {
							checkStreamKeyedMap(t, fset, n)
							return true
						})
					}
				}
				if !pkg.fieldsOnly {
					checkStreamKeyedMap(t, fset, n)
				}
				return true
			})
		}
	}
}

// checkStreamKeyedMap fails t if n is a map type keyed by uint32.
func checkStreamKeyedMap(t *testing.T, fset *token.FileSet, n ast.Node) {
	t.Helper()
	if m, ok := n.(*ast.MapType); ok {
		if key, ok := m.Key.(*ast.Ident); ok && key.Name == "uint32" {
			t.Errorf("%s: a map keyed by uint32; keep per-stream state in the stream's own record", fset.Position(m.Pos()))
		}
	}
}
