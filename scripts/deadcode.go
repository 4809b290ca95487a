//go:build ignore

// deadcode fails if an exported identifier under internal/ is reached
// by nothing that ships: a package-level func, type, var or const, or
// an exported method of a package-level type, declared in a non-test
// file under internal/, that no non-test file of the module names and
// no test of another package names. Its own package's tests do not
// count: code only they call is a test helper and belongs in a
// _test.go file. Run from the repository root:
//
//	go run scripts/deadcode.go
//
// It prints one "file:line pkg.Name" line per finding, sorted, and
// exits 1 if there is any. Two kinds of declaration are not findings:
// type parameters, which are not package-level, and methods named
// like a method of an interface declared in the module or of error,
// fmt.Stringer, sort.Interface or Unwrap, which are called through the
// interface without naming their type.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// listed is the part of `go list -json` this check reads. Taking the
// file sets from go list keeps build tags: a package's per-OS files
// are the ones this platform builds.
type listed struct {
	ImportPath, Dir                    string
	GoFiles, TestGoFiles, XTestGoFiles []string
}

// place identifies a declaration across separate type-checks of one
// file: the source importer parses an imported package afresh, so its
// objects are not the ones this check declared, but they sit at the
// same offset of the same file.
type place struct {
	file string
	off  int
}

var (
	fset = token.NewFileSet()
	imp  = importer.ForCompiler(fset, "source", nil)
	// used holds every place some counting reference names.
	used = map[place]bool{}
	// ifaceMethods holds the method names an interface requires:
	// error's, fmt.Stringer's, sort.Interface's, Unwrap, and those of
	// each interface a non-test file declares, named or literal.
	ifaceMethods = map[string]bool{"Error": true, "String": true, "Len": true, "Less": true, "Swap": true, "Unwrap": true}
)

type candidate struct {
	at     token.Position
	name   string
	method string // the method's name, or "" for a package-level object
}

func main() {
	out, err := exec.Command("go", "list", "-json", "./...").Output()
	if err != nil {
		fatal("go list: %v", err)
	}
	var cands []candidate
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			fatal("decoding go list output: %v", err)
		}
		if len(p.GoFiles) > 0 {
			pkg := check(p.ImportPath, p.Dir, p.GoFiles, "")
			if strings.Contains(p.ImportPath, "/internal/") {
				cands = append(cands, declared(pkg)...)
			}
		}
		// A package's tests count for every package but their own.
		if len(p.TestGoFiles) > 0 {
			check(p.ImportPath, p.Dir, append(p.GoFiles, p.TestGoFiles...), p.ImportPath)
		}
		if len(p.XTestGoFiles) > 0 {
			check(p.ImportPath+"_test", p.Dir, p.XTestGoFiles, p.ImportPath)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		fatal("%v", err)
	}
	var findings []string
	for _, c := range cands {
		if !used[place{c.at.Filename, c.at.Offset}] && !(c.method != "" && ifaceMethods[c.method]) {
			rel := strings.TrimPrefix(c.at.Filename, wd+string(filepath.Separator))
			findings = append(findings, fmt.Sprintf("%s:%d %s", rel, c.at.Line, c.name))
		}
	}
	sort.Strings(findings)
	if len(findings) > 0 {
		fmt.Println(strings.Join(findings, "\n"))
		fmt.Fprintf(os.Stderr, "deadcode: %d exported identifier(s) under internal/ that only their own package's tests reach\n", len(findings))
		os.Exit(1)
	}
}

// check type-checks one package from the named files and records its
// references, except those to objects of package skip.
func check(path, dir string, names []string, skip string) *types.Package {
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, 0)
		if err != nil {
			fatal("%v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		fatal("type-checking %s: %v", path, err)
	}
	for _, obj := range info.Uses {
		if obj.Pkg() == nil || obj.Pkg().Path() == skip {
			continue
		}
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		p := fset.Position(obj.Pos())
		used[place{p.Filename, p.Offset}] = true
	}
	if skip == "" {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					iface := info.Types[it].Type.(*types.Interface)
					for i := 0; i < iface.NumMethods(); i++ {
						ifaceMethods[iface.Method(i).Name()] = true
					}
				}
				return true
			})
		}
	}
	return pkg
}

// declared lists the candidates a package declares: its exported
// package-level objects and the exported methods of its package-level
// types. Type parameters are never package-level, so none is listed.
func declared(pkg *types.Package) []candidate {
	var cs []candidate
	add := func(obj types.Object, name, method string) {
		cs = append(cs, candidate{fset.Position(obj.Pos()), pkg.Name() + "." + name, method})
	}
	scope := pkg.Scope()
	for _, n := range scope.Names() {
		obj := scope.Lookup(n)
		if obj.Exported() {
			add(obj, n, "")
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if m.Exported() {
				add(m, n+"."+m.Name(), m.Name())
			}
		}
	}
	return cs
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "deadcode: "+format+"\n", args...)
	os.Exit(2)
}
