package apsp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// censusAllow names the exported functions that no non-test file needs to
// call: a whole package ("repro/internal/difftest") or one function
// ("repro/internal/graph.ZeroClosure"), each with its reason.
var censusAllow = map[string]string{
	"repro":                     "the public apsp facade: its callers live outside the module",
	"repro/internal/difftest":   "differential-testing harness: only tests call it",
	"repro/internal/quickcheck": "property-testing harness: only tests call it",

	"repro/internal/graph.FloydWarshall": "sequential reference: tests use it as an oracle",
	"repro/internal/graph.KSourceHHop":   "sequential reference: tests use it as an oracle",
	"repro/internal/graph.ZeroClosure":   "sequential reference: tests use it as an oracle",

	"repro/internal/bellman.NewNode": "test seam: congest's allocation and recycle guards step the bellman node through it",
	"repro/internal/checkpoint.Save": "the fixture re-seal step (Load, then Save); Keeper saves through the unexported save",
}

// TestSymbolCensus fails on an exported package-level function that no
// non-test file of the repository references (the nested benchmark module
// included): code kept alive only by its own tests is dead weight.
func TestSymbolCensus(t *testing.T) {
	fset := token.NewFileSet()
	type file struct {
		pkg string // import path
		f   *ast.File
	}
	var files []file
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err == nil {
			files = append(files, file{path.Join("repro", filepath.ToSlash(filepath.Dir(p))), f})
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]token.Pos{}
	used := map[string]bool{}
	for _, fl := range files {
		for _, d := range fl.f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
				declared[fl.pkg+"."+fd.Name.Name] = fd.Pos()
			}
		}
		imports := map[string]string{} // local name → import path
		for _, im := range fl.f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(p)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		// A qualified identifier names a function of the imported package;
		// a bare one, one of this package. Field names and composite-literal
		// keys name neither.
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+n.Sel.Name] = true
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.KeyValueExpr:
				if _, ok := n.Key.(*ast.Ident); !ok {
					ast.Inspect(n.Key, visit)
				}
				ast.Inspect(n.Value, visit)
				return false
			case *ast.Field:
				ast.Inspect(n.Type, visit)
				return false
			case *ast.FuncDecl: // its own name is no reference
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.Ident:
				used[fl.pkg+"."+n.Name] = true
			}
			return true
		}
		ast.Inspect(fl.f, visit)
	}

	excused := map[string]bool{}
	var dead []string
	for sym, pos := range declared {
		pkg := sym[:strings.LastIndex(sym, ".")]
		switch {
		case used[sym], strings.HasPrefix(pkg, "repro/benchmark"):
		case censusAllow[sym] != "":
			excused[sym] = true
		case censusAllow[pkg] != "":
			excused[pkg] = true
		default:
			dead = append(dead, fset.Position(pos).String()+": "+sym)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is referenced by no non-test file: delete it, or allowlist it with a reason", d)
	}
	for k := range censusAllow {
		if !excused[k] {
			t.Errorf("censusAllow entry %q excuses nothing; drop it", k)
		}
	}
}
