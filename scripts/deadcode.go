//go:build ignore

// deadcode fails on code under internal/ that nothing shipping needs.
// Shipping code is every non-test file of the module, and the tests of
// every package but the declaring one's own: code only its own
// package's tests reach is a test helper and belongs in a _test.go
// file, and a field only they read is test-only state. Setting is
// stricter: no test counts, its own package's or another's, for a
// value only tests change is a constant. Three rules:
//
//   - a package-level func, type, var or const, or a method of a
//     package-level type, declared in a non-test file under internal/,
//     that no shipping code names;
//   - a field of a package-level struct type declared there that no
//     non-test file sets: assigns, increments, writes in a composite
//     literal or takes the address of, by & or by slicing it or calling
//     a pointer method on it (which lets a callee set it) — other than
//     with a constant zero, nil or an empty struct literal, and other
//     than in its own type's withDefaults or setDefaults method. The
//     fields kept lists are exempt, each for its reason; a kept field
//     that is set, or gone, is a finding too;
//   - an unexported field, or any field of an unexported type, declared
//     there that no shipping code reads: uses it other than as the
//     target of an assignment, ++ or --, or as a composite-literal key.
//     Every field of a struct type used as a map key, or compared with
//     == or !=, is read. A kept field is exempt here too; one that is
//     both set and read is a finding.
//
// Run from the repository root:
//
//	go run scripts/deadcode.go
//
// It prints one "file:line pkg.Name" line per finding, sorted, and
// exits 1 if there is any. Three kinds of declaration are not findings:
// type parameters, which are not package-level; methods named like a
// method of an interface declared in the module or of error,
// fmt.Stringer, sort.Interface or Unwrap, which are called through the
// interface without naming their type; and embedded or blank fields.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// listed is the part of `go list -json` this check reads. Taking the
// file sets from go list keeps build tags: a package's per-OS files
// are the ones this platform builds.
type listed struct {
	ImportPath, Dir                    string
	GoFiles, TestGoFiles, XTestGoFiles []string
	Deps                               []string
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
	// set holds every field some counting code sets, and read every
	// field some counting code reads (see the package comment).
	set  = map[place]bool{}
	read = map[place]bool{}
	// ifaceMethods holds the method names an interface requires:
	// error's, fmt.Stringer's, sort.Interface's, Unwrap, and those of
	// each interface a non-test file declares, named or literal.
	ifaceMethods = map[string]bool{"Error": true, "String": true, "Len": true, "Less": true, "Swap": true, "Unwrap": true}
)

// kept are the fields only tests set, or no shipping code reads, that
// stay on purpose (DESIGN.md §2), each with its reason.
var kept = map[string]string{
	"occam.Node.busyFor":    "shipping code sets it, and FuzzStepProcess and the node tests compare it",
	"occam.Runtime.Trace":   "the test seam TestSchedulePin, the degrade decision pin and the box and degrade turn tests read the schedule through",
	"clawback.Config.Fault": "only tests set it, but clawback_fault_drops_total is a column of bench/run.go's digest, so deleting it changes every sim_digest (ROADMAP, parked bench repair)",
}

type candidate struct {
	at     token.Position
	name   string
	method string // the method's name, or "" for a package-level object or field
	field  bool   // the second rule's: a struct field
	hidden bool   // the third rule's: a field unexported or of an unexported type
}

func main() {
	out, err := exec.Command("go", "list", "-json", "./...").Output()
	if err != nil {
		fatal("go list: %v", err)
	}
	var cands []candidate
	var pkgs []listed
	mod := map[string]listed{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			fatal("decoding go list output: %v", err)
		}
		pkgs, mod[p.ImportPath] = append(pkgs, p), p
	}
	for _, p := range pkgs {
		if len(p.GoFiles) > 0 {
			pkg := check(p.ImportPath, p.Dir, p.GoFiles, "", imp)
			if strings.Contains(p.ImportPath, "/internal/") {
				cands = append(cands, declared(pkg)...)
			}
		}
		// A package's tests count for every package but their own. Its
		// external tests see it as go test builds it: with its in-package
		// tests, which may declare what they use.
		var xImp types.Importer = imp
		if len(p.TestGoFiles) > 0 {
			under := check(p.ImportPath, p.Dir, append(p.GoFiles, p.TestGoFiles...), p.ImportPath, imp)
			xImp = &xtestImporter{under: p.ImportPath, pkgs: map[string]*types.Package{p.ImportPath: under}, mod: mod}
		}
		if len(p.XTestGoFiles) > 0 {
			check(p.ImportPath+"_test", p.Dir, p.XTestGoFiles, p.ImportPath, xImp)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		fatal("%v", err)
	}
	var findings []string
	needed := map[string]bool{} // the kept fields still unset or unread
	for _, c := range cands {
		at := place{c.at.Filename, c.at.Offset}
		var dead bool
		if c.field {
			_, keep := kept[c.name]
			idle := !set[at] || c.hidden && !read[at]
			needed[c.name] = keep && idle
			dead = idle && !keep
		} else {
			dead = !used[at] && !(c.method != "" && ifaceMethods[c.method])
		}
		if dead {
			rel := strings.TrimPrefix(c.at.Filename, wd+string(filepath.Separator))
			findings = append(findings, fmt.Sprintf("%s:%d %s", rel, c.at.Line, c.name))
		}
	}
	for name := range kept {
		if !needed[name] {
			findings = append(findings, fmt.Sprintf("scripts/deadcode.go: kept field %s is set and read, or gone: drop it from kept", name))
		}
	}
	sort.Strings(findings)
	if len(findings) > 0 {
		fmt.Println(strings.Join(findings, "\n"))
		fmt.Fprintf(os.Stderr, "deadcode: %d identifier(s) or field(s) under internal/ that only tests set, or only their own package's tests reach or read\n", len(findings))
		os.Exit(1)
	}
}

// xtestImporter imports for an external test package as go test builds
// it: the package under test comes with its in-package tests, and every
// module package that imports it is checked again against that.
type xtestImporter struct {
	under string
	pkgs  map[string]*types.Package // checked for this test, by path
	mod   map[string]listed
}

func (x *xtestImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := x.pkgs[path]; ok {
		return pkg, nil
	}
	l, ok := x.mod[path]
	if !ok || !slices.Contains(l.Deps, x.under) {
		return imp.Import(path)
	}
	x.pkgs[path] = check(path, l.Dir, l.GoFiles, "", x)
	return x.pkgs[path], nil
}

// check type-checks one package from the named files, importing with
// importer, and records its references, except those to objects of
// package skip.
func check(path, dir string, names []string, skip string, importer types.Importer) *types.Package {
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, 0)
		if err != nil {
			fatal("%v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer}
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
	for i, f := range files {
		if !strings.HasSuffix(names[i], "_test.go") {
			recordSets(f, info, skip)
		}
	}
	recordReads(files, info, skip)
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

// recordSets marks the fields f sets, as the package comment defines a
// set, except fields of package skip.
func recordSets(f *ast.File, info *types.Info, skip string) {
	for _, d := range f.Decls {
		// A defaults method's own settings are defaults, not sets.
		var own *types.Struct
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && (fd.Name.Name == "withDefaults" || fd.Name.Name == "setDefaults") {
			own, _ = deref(info.Defs[fd.Name].(*types.Func).Type().(*types.Signature).Recv().Type()).Underlying().(*types.Struct)
		}
		markField := func(v *types.Var) {
			v = v.Origin()
			if v.Pkg() == nil || v.Pkg().Path() == skip {
				return
			}
			for i := 0; own != nil && i < own.NumFields(); i++ {
				if own.Field(i) == v {
					return
				}
			}
			p := fset.Position(v.Pos())
			set[place{p.Filename, p.Offset}] = true
		}
		// mark marks the fields of the selector chain e writes through.
		var mark func(e ast.Expr)
		mark = func(e ast.Expr) {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
					markField(s.Obj().(*types.Var))
					mark(x.X)
				}
			case *ast.IndexExpr:
				mark(x.X)
			case *ast.StarExpr:
				mark(x.X)
			}
		}
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) && zero(info, n.Rhs[i]) {
						continue
					}
					mark(lhs)
				}
			case *ast.IncDecStmt:
				mark(n.X)
			case *ast.SliceExpr: // slicing an array takes its address
				if _, ok := info.Types[n.X].Type.Underlying().(*types.Array); ok {
					mark(n.X)
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					mark(n.X)
				}
			case *ast.CallExpr: // a pointer method called on a field takes its address
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
						_, ptrRecv := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
						if _, ptrX := info.Types[sel.X].Type.Underlying().(*types.Pointer); ptrRecv && !ptrX {
							mark(sel.X)
						}
					}
				}
			case *ast.CompositeLit:
				st, ok := deref(info.Types[n].Type).Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, el := range n.Elts {
					v, val := (*types.Var)(nil), el
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						v, _ = info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
						val = kv.Value
					} else {
						v = st.Field(i)
					}
					if v != nil && !zero(info, val) {
						markField(v)
					}
				}
			}
			return true
		})
	}
}

// recordReads marks the fields files read, as the package comment
// defines a read, except fields of package skip.
func recordReads(files []*ast.File, info *types.Info, skip string) {
	mark := func(v *types.Var) {
		if v = v.Origin(); v.Pkg() != nil && v.Pkg().Path() != skip {
			p := fset.Position(v.Pos())
			read[place{p.Filename, p.Offset}] = true
		}
	}
	// markAll marks every field t compares: a struct's, through nested
	// structs and arrays.
	var markAll func(t types.Type)
	markAll = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				mark(u.Field(i))
				markAll(u.Field(i).Type())
			}
		case *types.Array:
			markAll(u.Elem())
		}
	}
	// targets are the field names files use only to write through.
	targets := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			targets[sel.Sel] = true
		}
	}
	inspect := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				target(lhs)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				targets[id] = true
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				markAll(info.Types[n.X].Type)
			}
		case ast.Expr:
			if m, ok := info.Types[n].Type.(*types.Map); ok {
				markAll(m.Key())
			}
		}
		return true
	}
	for _, f := range files {
		ast.Inspect(f, inspect)
	}
	for id, obj := range info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !targets[id] {
			mark(v)
		}
	}
}

// zero reports whether e is a constant zero, nil or an empty struct
// literal.
func zero(info *types.Info, e ast.Expr) bool {
	tv := info.Types[e]
	if tv.IsNil() {
		return true
	}
	if v := tv.Value; v != nil {
		switch v.Kind() {
		case constant.Bool:
			return !constant.BoolVal(v)
		case constant.String:
			return constant.StringVal(v) == ""
		default:
			return constant.Sign(v) == 0
		}
	}
	cl, ok := ast.Unparen(e).(*ast.CompositeLit)
	_, isStruct := tv.Type.Underlying().(*types.Struct)
	return ok && isStruct && len(cl.Elts) == 0
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// declared lists the candidates a package declares: its package-level
// objects, the methods of its package-level types and the fields of its
// package-level struct types. Type parameters are never package-level,
// so none is listed.
func declared(pkg *types.Package) []candidate {
	var cs []candidate
	add := func(obj types.Object, name, method string, field, hidden bool) {
		cs = append(cs, candidate{fset.Position(obj.Pos()), pkg.Name() + "." + name, method, field, hidden})
	}
	scope := pkg.Scope()
	for _, n := range scope.Names() {
		obj := scope.Lookup(n)
		add(obj, n, "", false, false)
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			add(m, n+"."+m.Name(), m.Name(), false, false)
		}
		st, ok := named.Underlying().(*types.Struct)
		for i := 0; ok && i < st.NumFields(); i++ {
			if f := st.Field(i); !f.Embedded() && f.Name() != "_" {
				add(f, n+"."+f.Name(), "", true, !f.Exported() || !tn.Exported())
			}
		}
	}
	return cs
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "deadcode: "+format+"\n", args...)
	os.Exit(2)
}
