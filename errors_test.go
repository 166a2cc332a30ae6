package gmdj_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	gmdj "github.com/olaplab/gmdj"
)

// TestClassifyCoversEverySentinel: every exported Err* sentinel of the
// package has exactly one row of the error table — a governed failure
// a row of its own, a catalog or statement error the default row —
// and every row but the default belongs to exactly one sentinel.
func TestClassifyCoversEverySentinel(t *testing.T) {
	sentinels := map[string]error{
		"ErrCanceled": gmdj.ErrCanceled, "ErrTimeout": gmdj.ErrTimeout,
		"ErrRowBudget": gmdj.ErrRowBudget, "ErrMemBudget": gmdj.ErrMemBudget,
		"ErrInternal": gmdj.ErrInternal, "ErrSpillIO": gmdj.ErrSpillIO,
		"ErrAdmissionTimeout": gmdj.ErrAdmissionTimeout, "ErrClosed": gmdj.ErrClosed,
		"ErrSegmentCorrupt": gmdj.ErrSegmentCorrupt,
		"ErrTableExists":    gmdj.ErrTableExists, "ErrUnknownTable": gmdj.ErrUnknownTable,
		"ErrBadParam": gmdj.ErrBadParam,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	for _, name := range files {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			g, ok := d.(*ast.GenDecl)
			if !ok || g.Tok != token.VAR || strings.HasSuffix(name, "_test.go") {
				continue
			}
			for _, spec := range g.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					if strings.HasPrefix(id.Name, "Err") {
						declared++
						if sentinels[id.Name] == nil {
							t.Errorf("sentinel %s is not covered by this test", id.Name)
						}
					}
				}
			}
		}
	}
	if declared != len(sentinels) {
		t.Errorf("package declares %d Err* sentinels, test lists %d", declared, len(sentinels))
	}

	classes := gmdj.ErrorClasses()
	def := classes[len(classes)-1]
	if def != (gmdj.ErrorClass{Kind: "query", ExitCode: 1, HTTPStatus: 400}) {
		t.Errorf("default class = %+v", def)
	}
	owner := map[gmdj.ErrorClass]string{}
	var defaulted []string
	for name, err := range sentinels {
		c := gmdj.Classify(fmt.Errorf("outer: %w", err))
		if c == def {
			defaulted = append(defaulted, name)
		} else if prev, dup := owner[c]; dup {
			t.Errorf("%s and %s share the row %+v", prev, name, c)
		}
		owner[c] = name
	}
	sort.Strings(defaulted)
	if got := strings.Join(defaulted, " "); got != "ErrBadParam ErrTableExists ErrUnknownTable" {
		t.Errorf("sentinels on the default row: %s", got)
	}
	exits := map[int]bool{}
	for _, c := range classes {
		if owner[c] == "" {
			t.Errorf("row %+v matches no sentinel of the package", c)
		}
		if exits[c.ExitCode] {
			t.Errorf("exit code %d is used twice", c.ExitCode)
		}
		exits[c.ExitCode] = true
	}
}
