package osdiversity

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testHelpers are the exported functions and methods that only tests
// call: other packages' tests (and a package's own, for attack's
// campaign loop) reach the code under test through them. Each one's doc
// comment names its callers.
var testHelpers = map[string]bool{
	"attack.Simulate":                true,
	"attack.SimulateRotation":        true,
	"attack.VulnCount":               true,
	"core.ClearCache":                true,
	"core.KWiseClusters":             true,
	"core.PairMatrix":                true,
	"core.Profiles":                  true,
	"cve.AffectsProduct":             true,
	"cve.Clone":                      true,
	"cve.HasOSProduct":               true,
	"cve.MustID":                     true,
	"httpapi.Corpus":                 true,
	"httpapi.GetRaw":                 true,
	"httpapi.Health":                 true,
	"httpapi.NewClient":              true,
	"httpapi.PostJSON":               true,
	"httpapi.Query":                  true,
	"httpapi.Recommend":              true,
	"httpapi.Reload":                 true,
	"nvdfeed.WriteFileWithMalformed": true,
	"osmap.AllPairs":                 true,
	"osmap.Equal":                    true,
	"relstore.QueryInt":              true,
	"server.New":                     true,
	"server.Routes":                  true,
}

// interfaceMethods are the standard-library interface methods a type
// implements for a caller that never names them (container/heap calls
// Push, Pop and Swap; fmt calls String).
var interfaceMethods = map[string]bool{
	"Error": true, "Len": true, "Less": true, "MarshalJSON": true, "Pop": true,
	"Push": true, "ServeHTTP": true, "String": true, "Swap": true, "UnmarshalJSON": true,
}

// TestNoUncalledFunctions fails on a function or method that no non-test
// code names, so code that only tests reach does not build up again. It
// parses every non-test file of the module and of e2ebench (which calls
// the module as a client) and flags
//   - an exported function or method outside a main package whose name
//     no non-test code uses besides its declaration, unless testHelpers
//     lists it;
//   - an unexported function or method whose name nothing in its
//     package's non-test files uses besides its declaration.
//
// It matches names, not types, so a dead function whose name a live one
// shares goes unflagged.
func TestNoUncalledFunctions(t *testing.T) {
	type funcDecl struct {
		pos      token.Pos
		dir, pkg string
		name     string
		isMethod bool
	}
	var decls []funcDecl
	uses := map[string]int{}               // identifier -> uses in all non-test files
	pkgUses := map[string]map[string]int{} // directory -> identifier -> uses
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		if pkgUses[dir] == nil {
			pkgUses[dir] = map[string]int{}
		}
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				declared[fn.Name] = true
				decls = append(decls, funcDecl{fn.Pos(), dir, f.Name.Name, fn.Name.Name, fn.Recv != nil})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name]++
				pkgUses[dir][id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var flagged []string
	for _, d := range decls {
		switch {
		case d.name == "init" || d.name == "main" || d.name == "_":
		case d.isMethod && interfaceMethods[d.name]:
		case ast.IsExported(d.name):
			if d.pkg != "main" && !testHelpers[d.pkg+"."+d.name] && uses[d.name] == 0 {
				flagged = append(flagged, fset.Position(d.pos).String()+": "+d.pkg+"."+d.name)
			}
		case pkgUses[d.dir][d.name] == 0:
			flagged = append(flagged, fset.Position(d.pos).String()+": "+d.pkg+"."+d.name)
		}
	}
	sort.Strings(flagged)
	for _, s := range flagged {
		t.Errorf("%s: no non-test code calls it; delete it, or list it in testHelpers if other packages' tests need it", s)
	}
}
