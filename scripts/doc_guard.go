//go:build ignore

// doc_guard fails if any package under internal/ (or cmd/) lacks a
// package-level doc comment — the documentation layer's enforcement
// hook: every package must say which part of the paper it reproduces
// and, where segment wires cross its boundary, who owns the
// reference. Packages that sit above the wire layer and drive route
// changes (listed in ownershipRequired) must additionally spell out
// their ownership rules in the package comment, so a reader never has
// to reverse-engineer who releases what. It also keeps the scenario
// grammar written once: the indented block of scenario.Parse's doc
// comment is the grammar, and README "Scenario files" must carry a
// verbatim copy. And it keeps the documents from growing: each root
// document has a line budget, and each recent CHANGES.md entry a byte
// cap. Run from the repository root:
//
//	go run scripts/doc_guard.go
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// ownershipRequired lists packages whose package comment must contain
// an explicit ownership statement (a paragraph mentioning
// "Ownership"): control-plane packages that cause wires to move
// without ever holding one.
var ownershipRequired = map[string]bool{
	filepath.Join("internal", "balancer"): true,
}

// lineBudgets are the root documents' line counts when the budgets were
// set: a document may shrink, not grow. Lower a budget when its
// document is cut.
var lineBudgets = []struct {
	doc   string
	lines int
}{
	{"ARCHITECTURE.md", 468},
	{"DESIGN.md", 787},
	{"EXPERIMENTS.md", 100},
	{"README.md", 418},
}

// CHANGES.md holds one entry a line, opening "PR N"; entries numbered
// firstCappedEntry and up may be at most changesCap bytes long.
const (
	firstCappedEntry = 27
	changesCap       = 1500
)

func main() {
	var bad, badOwn []string
	for _, root := range []string{"internal", "cmd"} {
		dirs, err := packageDirs(root)
		if err != nil {
			fatal("walking %s: %v", root, err)
		}
		for _, dir := range dirs {
			doc, err := packageComment(dir)
			if err != nil {
				fatal("parsing %s: %v", dir, err)
			}
			if strings.TrimSpace(doc) == "" {
				bad = append(bad, dir)
				continue
			}
			if ownershipRequired[dir] && !strings.Contains(doc, "Ownership") {
				badOwn = append(badOwn, dir)
			}
		}
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "doc_guard: %d package(s) lack a package doc comment:\n", len(bad))
		for _, dir := range bad {
			fmt.Fprintf(os.Stderr, "  %s\n", dir)
		}
	}
	if len(badOwn) > 0 {
		fmt.Fprintf(os.Stderr, "doc_guard: %d package(s) lack the required Ownership statement in their package comment:\n", len(badOwn))
		for _, dir := range badOwn {
			fmt.Fprintf(os.Stderr, "  %s\n", dir)
		}
	}
	drift := grammarDrift()
	if drift != "" {
		fmt.Fprintf(os.Stderr, "doc_guard: %s\n", drift)
	}
	over := overBudget()
	for _, o := range over {
		fmt.Fprintf(os.Stderr, "doc_guard: %s\n", o)
	}
	if len(bad) > 0 || len(badOwn) > 0 || drift != "" || len(over) > 0 {
		os.Exit(1)
	}
	fmt.Println("doc_guard: every package has a package doc comment (and ownership rules where required); README's scenario grammar matches scenario.Parse's; the documents are within their budgets")
}

// overBudget describes each root document longer than its line budget
// and each capped CHANGES.md entry longer than changesCap.
func overBudget() []string {
	var over []string
	for _, b := range lineBudgets {
		text, err := os.ReadFile(b.doc)
		if err != nil {
			fatal("%v", err)
		}
		if n := strings.Count(string(text), "\n"); n > b.lines {
			over = append(over, fmt.Sprintf("%s is %d lines, over its budget of %d", b.doc, n, b.lines))
		}
	}
	text, err := os.ReadFile("CHANGES.md")
	if err != nil {
		fatal("%v", err)
	}
	for _, entry := range strings.Split(string(text), "\n") {
		var n int
		if _, err := fmt.Sscanf(entry, "PR %d", &n); err == nil && n >= firstCappedEntry && len(entry) > changesCap {
			over = append(over, fmt.Sprintf("CHANGES.md entry %q is %d bytes, over the cap of %d", entry[:40]+"…", len(entry), changesCap))
		}
	}
	return over
}

// grammarDrift compares the scenario grammar in scenario.Parse's doc
// comment — from its first indented line to its last — with the first
// fenced block of README's "Scenario files" section, and describes the
// first difference ("" when they agree).
func grammarDrift() string {
	const src, readme = "internal/scenario/parse.go", "README.md"
	file, err := parser.ParseFile(token.NewFileSet(), src, nil, parser.ParseComments)
	if err != nil {
		fatal("parsing %s: %v", src, err)
	}
	var want []string
	for _, d := range file.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "Parse" || fn.Recv != nil {
			continue
		}
		lines := strings.Split(fn.Doc.Text(), "\n")
		first, last := -1, -1
		for i, l := range lines {
			if strings.HasPrefix(l, "\t") {
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		for _, l := range lines[max(first, 0) : last+1] {
			want = append(want, strings.TrimPrefix(l, "\t"))
		}
	}
	if len(want) == 0 {
		return src + ": scenario.Parse has no indented grammar block in its doc comment"
	}
	text, err := os.ReadFile(readme)
	if err != nil {
		fatal("%v", err)
	}
	_, section, _ := strings.Cut(string(text), "\n## Scenario files\n")
	_, block, _ := strings.Cut(section, "\n```\n")
	block, _, closed := strings.Cut(block, "\n```\n")
	if !closed {
		return readme + `: no fenced grammar block under "## Scenario files"`
	}
	got := strings.Split(block, "\n")
	lineAt := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return ""
	}
	for i := range max(len(want), len(got)) {
		if w, g := lineAt(want, i), lineAt(got, i); w != g {
			return fmt.Sprintf("%s \"Scenario files\" grammar line %d differs from %s's Parse comment:\n  README: %q\n  Parse:  %q", readme, i+1, src, g, w)
		}
	}
	return ""
}

// packageDirs returns every directory under root that contains at
// least one non-test .go file.
func packageDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	return dirs, err
}

// packageComment returns the first non-empty doc comment on any
// non-test file's package clause in dir (the standard "// Package x
// ..." position; build-tagged files like the scripts count too).
func packageComment(dir string) (string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		return "", err
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				return f.Doc.Text(), nil
			}
		}
	}
	return "", nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "doc_guard: "+format+"\n", args...)
	os.Exit(1)
}
