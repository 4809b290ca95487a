package scenario

import (
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/atm"
	"repro/internal/balancer"
	"repro/internal/degrade"
	"repro/internal/faultinject"
)

// TestGrammarDocMatchesTables reads the grammar block of Parse's doc
// comment and holds it to the clause tables: every key= and bare flag a
// directive's line documents is a row of that directive's table, of the
// same kind, every row is documented, and so is every canned fault's
// list. scripts/doc_guard.go keeps
// README's copy of the block verbatim, so README is held to the tables
// too.
func TestGrammarDocMatchesTables(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "parse.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var doc string
	for _, d := range file.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == "Parse" && fn.Recv == nil {
			doc = fn.Doc.Text()
		}
	}
	tables := map[string][]clause{
		"box":     (&Box{}).clauses(),
		"link":    hopClauses(&atm.LinkConfig{}),
		"fabric":  (&Fabric{}).clauses(),
		"feed":    (&Feed{}).clauses(),
		"cross":   (&Cross{}).clauses(),
		"degrade": degradeClauses(&degrade.Config{}),
		"balance": balanceClauses(&balancer.Config{}),
		"faults":  faultClauses(&faultinject.Spec{}),
	}
	for name, o := range ops {
		tables["at "+name] = o.clauses(&Event{})
	}
	documented := map[string]map[string]bool{}
	keyRe := regexp.MustCompile(`\b([a-z]+)=|\[([a-z]+)\]`)
	directive := ""
	for _, line := range strings.Split(doc, "\n") {
		body, ok := strings.CutPrefix(line, "\t")
		if !ok || strings.TrimSpace(body) == "" {
			continue
		}
		if f := strings.Fields(body); !strings.HasPrefix(body, " ") {
			directive = f[0]
			if directive == "at" && len(f) > 2 {
				directive += " " + f[2]
			}
		}
		for _, m := range keyRe.FindAllStringSubmatch(body, -1) {
			key, flag := m[1]+m[2], m[2] != ""
			if key == "wave" {
				continue // shorthand that Parse expands before it reads a clause
			}
			i := slices.IndexFunc(tables[directive], func(c clause) bool { return c.key == key })
			if i < 0 {
				t.Errorf("the grammar documents %s on %q, which has no such clause row", key, directive)
				continue
			}
			if _, isFlag := tables[directive][i].field.(*bool); isFlag != flag {
				t.Errorf("the grammar documents %s on %q as flag=%v; its row says flag=%v", key, directive, flag, isFlag)
			}
			if documented[directive] == nil {
				documented[directive] = map[string]bool{}
			}
			documented[directive][key] = true
		}
	}
	flat := strings.Join(strings.Fields(doc), " ")
	for word, list := range faultWords {
		if !strings.Contains(flat, word+" ("+list+")") {
			t.Errorf("the grammar does not spell canned fault %s as %s (%s)", word, word, list)
		}
	}
	for directive, table := range tables {
		for _, c := range table {
			if !documented[directive][c.key] {
				t.Errorf("row %s of %q is missing from the grammar in Parse's doc comment", c.key, directive)
			}
		}
	}
}
