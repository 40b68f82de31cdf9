package apsp

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/congest"
)

// censusAllow names the exported surface that no non-test file needs: a
// whole package ("repro/internal/difftest"), a function
// ("repro/internal/graph.ZeroClosure"), a type's members
// ("repro/internal/congest.NopObserver"), or one method or option field
// ("repro/internal/congest.Config.Scheduler"), each with its reason.
var censusAllow = map[string]string{
	"repro":                     "the public apsp facade: its callers live outside the module",
	"repro/internal/difftest":   "differential-testing harness: only tests call it",
	"repro/internal/quickcheck": "property-testing harness: only tests call it",

	"repro/internal/graph.FloydWarshall": "sequential reference: tests use it as an oracle",
	"repro/internal/graph.KSourceHHop":   "sequential reference: tests use it as an oracle",
	"repro/internal/graph.ZeroClosure":   "sequential reference: tests use it as an oracle",

	"repro/internal/checkpoint.Save":   "the fixture re-seal step (Load, then Save); Keeper saves through the unexported save",
	"repro/internal/congest.HookWalks": "test seam: TestCheckpointCensus forgets one checkpoint walk site at a time through it",
	"repro/internal/congest.NopObserver": "the embeddable Observer: its one embedder, the benchmark's simObserver, " +
		"overrides RunStart, RoundDone and RunDone",

	"repro/internal/congest.Config.Scheduler": "the dense scheduler is the reference the equivalence sweeps " +
		"compare the active one against",
	"repro/internal/congest.CheckpointPolicy.Run": "kill probes after run 0: the conformance cells kill a " +
		"multi-run family inside a later engine run",
	"repro/internal/core.Opts.Prealloc": "the allocation guard's only lever",
	"repro/internal/trace.Options.Now": "the fake clock: span timings and the tail-sampling decisions made " +
		"from them are exact in tests",
}

// censusOptionTypes are the structs, besides those named *Opts, *Options,
// *Config, *Plan, *Policy or *Spec, whose exported fields are options.
var censusOptionTypes = map[string]bool{
	"repro/internal/faults.Network":      true,
	"repro/internal/httpfault.Transport": true,
	"repro/internal/httpfault.Listener":  true,
}

// censusConventions declares the standard library's method conventions:
// a method with the name and signature of one of Conventions' methods is
// called through the standard library, whoever converts its value.
const censusConventions = `package conventions

import ("container/heap"; "fmt"; "io"; "log/slog"; "net"; "net/http")

type Conventions interface {
	fmt.Stringer
	error
	Unwrap() error
	heap.Interface
	io.ReadWriteCloser
	io.ReaderFrom
	io.WriterTo
	http.RoundTripper
	net.Listener
	net.Conn
	slog.Handler
}
`

// TestSymbolCensus fails on exported surface that only tests use, found
// in one type-checked load of every non-test file of the repository, the
// nested benchmark module included:
//   - a package-level function that no non-test file refers to;
//   - a method that no non-test file selects, unless non-test code
//     converts its type to an interface that has the method, or the
//     method has a standard-library convention's name and signature
//     (censusConventions);
//   - an exported field of an options struct (censusOptionTypes) that no
//     non-test file sets: as a keyed literal's key, on an assignment's
//     left-hand side, or by taking its address.
//
// Code kept alive only by its own tests is dead weight.
func TestSymbolCensus(t *testing.T) {
	start := time.Now()
	fset := token.NewFileSet()
	src := map[string][]*ast.File{}
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
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		return censusParse(fset, src, path.Join("repro", filepath.ToSlash(filepath.Dir(p))), p, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := newCensus(fset, src)
	if err != nil {
		t.Fatal(err)
	}
	findings := c.findings()
	for _, v := range censusVerdicts(findings, censusAllow) {
		t.Error(v)
	}
	t.Logf("%d packages, %d findings, %v", len(src), len(findings), time.Since(start))
}

// TestSymbolCensusCatchesPlanted runs the census over a package with one
// method and one option field that only its test uses, beside members
// each of the census's reasons keeps: exactly those two are reported, and
// an allowlist row that excuses nothing fails.
func TestSymbolCensusCatchesPlanted(t *testing.T) {
	fset := token.NewFileSet()
	src := map[string][]*ast.File{}
	for name, text := range map[string]string{
		"p/p.go": `package p

import "fmt"

type RunOpts struct {
	Seed  int64
	Depth int
	Width int
	Trace bool // planted: only the test sets it
	Limit int
}

type Engine struct{ opts RunOpts }

func New(o RunOpts) *Engine { return &Engine{opts: o} }

func (e *Engine) Run() int { return e.opts.Depth + e.opts.Width }

func (e *Engine) Walk() {}

func (e *Engine) String() string { return fmt.Sprint(e.opts.Seed) }

func (e *Engine) Reset() {} // planted: only the test calls it

type walker interface{ Walk() }

func init() {
	o := RunOpts{Seed: 1}
	o.Depth = 2
	scan(&o.Width)
	var w walker = New(o)
	w.Walk()
	fmt.Println(New(RunOpts{Limit: 3}).Run())
}

func scan(*int) {}
`,
		"p/p_test.go": `package p

func use() {
	e := New(RunOpts{Trace: true})
	e.Reset()
}
`,
	} {
		if err := censusParse(fset, src, "p", name, text); err != nil {
			t.Fatal(err)
		}
	}
	c, err := newCensus(fset, src)
	if err != nil {
		t.Fatal(err)
	}
	findings := c.findings()
	var got []string
	for _, f := range findings {
		got = append(got, f.key)
	}
	if want := []string{"p.RunOpts.Trace", "p.Engine.Reset"}; !slices.Equal(got, want) {
		t.Errorf("findings %q, want %q", got, want)
	}
	verdicts := censusVerdicts(findings, map[string]string{"p.Engine.Stop": "a row for a member that is gone"})
	if len(verdicts) != 3 || !strings.Contains(verdicts[2], `"p.Engine.Stop" excuses nothing`) {
		t.Errorf("verdicts %q: want the two findings and the stale row", verdicts)
	}
}

// censusParse adds file name, holding src (nil: read the file), to the
// files of the package at import path pkg. A test file is left out: the
// census counts only what non-test code uses.
func censusParse(fset *token.FileSet, pkgs map[string][]*ast.File, pkg, name string, src any) error {
	if strings.HasSuffix(name, "_test.go") {
		return nil
	}
	f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
	if err == nil {
		pkgs[pkg] = append(pkgs[pkg], f)
	}
	return err
}

// census is one type-checked load of a set of packages.
type census struct {
	fset *token.FileSet
	src  map[string][]*ast.File // import path → non-test files
	std  types.Importer
	pkgs map[string]*types.Package
	info types.Info
	conv types.Type // censusConventions' interface
}

// newCensus type-checks src in one load. A package of src imports another
// from source, so each object has one identity across the load; every
// other import comes from the standard library's export data.
func newCensus(fset *token.FileSet, src map[string][]*ast.File) (*census, error) {
	c := &census{fset: fset, src: src, std: importer.Default(), pkgs: map[string]*types.Package{}, info: types.Info{
		Types:     map[ast.Expr]types.TypeAndValue{},
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}}
	for p := range src {
		if _, err := c.Import(p); err != nil {
			return nil, err
		}
	}
	f, err := parser.ParseFile(fset, "conventions.go", censusConventions, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: c.std}
	conv, err := conf.Check("conventions", fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	c.conv = conv.Scope().Lookup("Conventions").Type()
	return c, nil
}

// Import type-checks a package of the load, once; any other package comes
// from export data.
func (c *census) Import(path string) (*types.Package, error) {
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	files, ok := c.src[path]
	if !ok {
		return c.std.Import(path)
	}
	conf := types.Config{Importer: c}
	p, err := conf.Check(path, c.fset, files, &c.info)
	c.pkgs[path] = p
	return p, err
}

// censusFinding is one exported member that no non-test file uses.
type censusFinding struct {
	pkg, owner, key string // import path; "pkg.Type" for a member; "pkg.Func", "pkg.Type.Method" or "pkg.Type.Field"
	what            string
	pos             token.Position
}

// findings runs the census's three checks over the load.
func (c *census) findings() []censusFinding {
	called := map[types.Object]bool{} // functions and methods non-test code refers to
	set := map[types.Object]bool{}    // fields it sets
	for _, obj := range c.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			called[fn.Origin()] = true
		}
	}
	boxed := map[string]types.Type{}        // concrete types it converts to an interface
	ifaces := map[string]*types.Interface{} // interfaces it converts to or asserts
	iface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[types.TypeString(it, nil)] = it
		}
	}
	box := func(v, t types.Type) {
		if v != nil && t != nil && types.IsInterface(t) && !types.IsInterface(v) {
			boxed[types.TypeString(v, nil)] = v
			iface(t)
		}
	}
	for _, files := range c.src {
		for _, f := range files {
			c.walk(f, box, iface, func(obj types.Object) {
				if v, ok := obj.(*types.Var); ok && v.IsField() {
					set[v.Origin()] = true
				}
			})
		}
	}
	// A type argument is converted to its parameter's constraint.
	for id, inst := range c.info.Instances {
		var tps *types.TypeParamList
		switch o := c.info.Uses[id].(type) {
		case *types.Func:
			tps = o.Type().(*types.Signature).TypeParams()
		case *types.TypeName:
			if n, ok := o.Type().(*types.Named); ok {
				tps = n.TypeParams()
			}
		}
		for i := range tps.Len() {
			box(inst.TypeArgs.At(i), tps.At(i).Constraint())
		}
	}
	for _, v := range boxed {
		for _, it := range ifaces {
			if !types.Implements(v, it) {
				continue
			}
			for i := range it.NumMethods() {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(v, true, m.Pkg(), m.Name()); obj != nil {
					called[obj.(*types.Func).Origin()] = true
				}
			}
		}
	}

	var out []censusFinding
	add := func(pkg, owner, member, what string, obj types.Object) {
		key := pkg + "." + member
		if owner != "" {
			owner = pkg + "." + owner
			key = owner + "." + member
		}
		out = append(out, censusFinding{pkg, owner, key, what, c.fset.Position(obj.Pos())})
	}
	for path, p := range c.pkgs {
		scope := p.Scope()
		for _, name := range scope.Names() {
			switch o := scope.Lookup(name).(type) {
			case *types.Func:
				if o.Exported() && !called[o] {
					add(path, "", name, "is referred to by no non-test file", o)
				}
			case *types.TypeName:
				named, ok := o.Type().(*types.Named)
				if !ok || o.IsAlias() || types.IsInterface(named) {
					continue
				}
				for i := range named.NumMethods() {
					m := named.Method(i)
					if m.Exported() && !called[m] && !c.conventional(m) {
						add(path, name, m.Name(), "is selected by no non-test file, nor reached through an interface", m)
					}
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok || !censusOptions(path, name) {
					continue
				}
				for i := range st.NumFields() {
					if f := st.Field(i); f.Exported() && !set[f] {
						add(path, name, f.Name(), "is set by no non-test file", f)
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
	})
	return out
}

// censusOptions reports whether the struct type name of package pkg is an
// options struct.
func censusOptions(pkg, name string) bool {
	for _, s := range []string{"Opts", "Options", "Config", "Plan", "Policy", "Spec"} {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return censusOptionTypes[pkg+"."+name]
}

// conventional reports whether method m has the name and signature of a
// standard-library convention's method.
func (c *census) conventional(m *types.Func) bool {
	obj, _, _ := types.LookupFieldOrMethod(c.conv, false, nil, m.Name())
	return obj != nil && types.Identical(obj.Type(), m.Type())
}

// walk reports what file f does with values: box(v, t) for each value of
// type v it hands to a slot of type t (an argument, an assigned or
// declared variable, a result, a composite literal's element, a sent
// value, an explicit conversion); assert(t) for each type it asserts to;
// and set(obj) for each variable or field it sets (a keyed literal's key,
// an assignment's left-hand side, an operand of &).
func (c *census) walk(f *ast.File, box func(v, t types.Type), assert func(t types.Type), set func(types.Object)) {
	typeOf := c.info.TypeOf
	// flow hands the values of es, or of the one tuple es holds, to slots of types ts.
	flow := func(ts []types.Type, es []ast.Expr) {
		var vs []types.Type
		if tup, ok := typeOf(es[0]).(*types.Tuple); len(es) == 1 && ok {
			for i := range tup.Len() {
				vs = append(vs, tup.At(i).Type())
			}
		} else {
			for _, e := range es {
				vs = append(vs, typeOf(e))
			}
		}
		for i := range min(len(ts), len(vs)) {
			box(vs[i], ts[i])
		}
	}
	tuple := func(tup *types.Tuple) []types.Type {
		var ts []types.Type
		for i := range tup.Len() {
			ts = append(ts, tup.At(i).Type())
		}
		return ts
	}
	setExpr := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			set(c.info.Uses[sel.Sel])
		}
	}
	var stack []ast.Node // the enclosing nodes, for a return's function
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CallExpr:
			if len(n.Args) == 0 {
				break
			}
			tv := c.info.Types[n.Fun]
			if tv.IsType() {
				flow([]types.Type{tv.Type}, n.Args)
				break
			}
			sig, ok := tv.Type.Underlying().(*types.Signature)
			if !ok {
				break
			}
			ts := tuple(sig.Params())
			if sig.Variadic() && !n.Ellipsis.IsValid() {
				if s, ok := ts[len(ts)-1].Underlying().(*types.Slice); ok {
					for ts = ts[:len(ts)-1]; len(ts) < len(n.Args); {
						ts = append(ts, s.Elem())
					}
				}
			}
			flow(ts, n.Args)
		case *ast.AssignStmt:
			var ts []types.Type
			for _, l := range n.Lhs {
				setExpr(l)
				ts = append(ts, typeOf(l))
			}
			if n.Tok == token.ASSIGN {
				flow(ts, n.Rhs)
			}
		case *ast.IncDecStmt:
			setExpr(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				setExpr(n.X)
			}
		case *ast.ValueSpec:
			if n.Type != nil && len(n.Values) > 0 {
				ts := make([]types.Type, len(n.Names))
				for i := range ts {
					ts[i] = typeOf(n.Type)
				}
				flow(ts, n.Values)
			}
		case *ast.ReturnStmt:
			if len(n.Results) == 0 {
				break
			}
			for i := len(stack) - 1; i >= 0; i-- {
				var sig types.Type
				switch fn := stack[i].(type) {
				case *ast.FuncLit:
					sig = typeOf(fn)
				case *ast.FuncDecl:
					sig = c.info.Defs[fn.Name].Type()
				default:
					continue
				}
				flow(tuple(sig.(*types.Signature).Results()), n.Results)
				break
			}
		case *ast.SendStmt:
			if ch, ok := typeOf(n.Chan).Underlying().(*types.Chan); ok {
				flow([]types.Type{ch.Elem()}, []ast.Expr{n.Value})
			}
		case *ast.CompositeLit:
			t := typeOf(n)
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			for i, e := range n.Elts {
				k, v := ast.Expr(nil), e
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					k, v = kv.Key, kv.Value
				}
				switch u := t.Underlying().(type) {
				case *types.Struct:
					field := u.Field(i)
					if k != nil {
						field = c.info.Uses[k.(*ast.Ident)].(*types.Var)
					}
					set(field)
					box(typeOf(v), field.Type())
				case *types.Slice:
					box(typeOf(v), u.Elem())
				case *types.Array:
					box(typeOf(v), u.Elem())
				case *types.Map:
					box(typeOf(k), u.Key())
					box(typeOf(v), u.Elem())
				}
			}
		case *ast.TypeAssertExpr:
			if n.Type != nil {
				assert(typeOf(n.Type))
			}
		case *ast.CaseClause:
			for _, e := range n.List {
				if tv := c.info.Types[e]; tv.IsType() {
					assert(tv.Type)
				}
			}
		}
		return true
	})
}

// censusVerdicts judges findings against allow, whose rows name a member,
// a type or a whole package: a finding no row excuses fails, and so does
// a row that excuses nothing.
func censusVerdicts(findings []censusFinding, allow map[string]string) []string {
	var out []string
	excused := map[string]bool{}
	for _, f := range findings {
		switch {
		case allow[f.key] != "":
			excused[f.key] = true
		case allow[f.owner] != "":
			excused[f.owner] = true
		case allow[f.pkg] != "":
			excused[f.pkg] = true
		default:
			out = append(out, fmt.Sprintf("%s: %s %s: delete it, or allowlist it with a reason", f.pos, f.key, f.what))
		}
	}
	var stale []string
	for k := range allow {
		if !excused[k] {
			stale = append(stale, fmt.Sprintf("censusAllow entry %q excuses nothing; drop it", k))
		}
	}
	sort.Strings(stale)
	return append(out, stale...)
}

// protocolPkgs are the packages whose non-test code runs on a protocol's
// path: each value a node holds there must come from the engine run.
var protocolPkgs = []string{"bellman", "core", "cssp", "blocker", "hssp", "bcast",
	"shortrange", "posweight", "scaling", "unweighted", "approx"}

// protocolFile is one parsed non-test file of a protocol package.
type protocolFile struct {
	pkg string
	f   *ast.File
}

// protocolFiles parses the non-test files of protocolPkgs.
func protocolFiles(t *testing.T, fset *token.FileSet) []protocolFile {
	var pfs []protocolFile
	for _, pkg := range protocolPkgs {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("package %s: no files (%v)", pkg, err)
		}
		for _, p := range files {
			if strings.HasSuffix(p, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			pfs = append(pfs, protocolFile{pkg, f})
		}
	}
	return pfs
}

// importName returns the name f refers to the package at path by, or ""
// if f does not import it.
func importName(f *ast.File, path string) string {
	for _, im := range f.Imports {
		if p, _ := strconv.Unquote(im.Path.Value); p == path {
			if im.Name != nil {
				return im.Name.Name
			}
			return filepath.Base(path)
		}
	}
	return ""
}

// oracleAllow names the protocol-package functions TestNoSequentialOracle
// lets call internal/graph/seq.go, each with its reason.
var oracleAllow = map[string]string{
	"(*cssp.Collection).Verify": "checks a finished collection against Definition III.3 for the tests and " +
		"E-CSSSP; no run reads what it computes",
	"approx.CheckStretch": "measures a finished result's stretch against exact distances for apsprun -check " +
		"and E-APPROX; no run reads what it computes",
}

// TestNoSequentialOracle fails on a non-test function of a protocol package
// that refers to a sequential reference of internal/graph/seq.go (Dijkstra,
// the h-hop DP, …): a value such a call fills in is one no node computed,
// so the rounds a protocol reports would not pay for it.
func TestNoSequentialOracle(t *testing.T) {
	fset := token.NewFileSet()
	seq, err := parser.ParseFile(fset, "internal/graph/seq.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	oracles := map[string]bool{}
	for _, d := range seq.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
			oracles[fd.Name.Name] = true
		}
	}
	excused := map[string]bool{}
	for _, pf := range protocolFiles(t, fset) {
		graphName := importName(pf.f, "repro/internal/graph")
		if graphName == "" {
			continue
		}
		for _, d := range pf.f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			caller := pf.pkg + "." + fd.Name.Name
			if fd.Recv != nil {
				recv := types.ExprString(fd.Recv.List[0].Type)
				star := ""
				if strings.HasPrefix(recv, "*") {
					star, recv = "*", recv[1:]
				}
				caller = "(" + star + pf.pkg + "." + recv + ")." + fd.Name.Name
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || !oracles[sel.Sel.Name] {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); !ok || x.Name != graphName {
					return true
				}
				if oracleAllow[caller] != "" {
					excused[caller] = true
					return true
				}
				t.Errorf("%s: %s calls the sequential reference graph.%s: compute the value in the run, "+
					"or allowlist the caller with a reason", fset.Position(sel.Pos()), caller, sel.Sel.Name)
				return true
			})
		}
	}
	for k := range oracleAllow {
		if !excused[k] {
			t.Errorf("oracleAllow entry %q excuses nothing; drop it", k)
		}
	}
}

// TestProtocolsForwardConfigWhole fails on a congest.Config composite
// literal with a field set in non-test code of a protocol package. A
// protocol hands its caller's engine environment on whole (adjusting
// only the fields it owns, such as a MaxRounds default, on its copy); a
// Config it rebuilds field by field drops each field it forgets — and
// Scheduler and Workers, dropped, change no result or observer event, so
// no run-time probe (TestNoEntryDropsAnEngineHook) can see them go. The
// zero value is allowed: it starts an engine run that takes no
// environment at all.
func TestProtocolsForwardConfigWhole(t *testing.T) {
	fset := token.NewFileSet()
	for _, pf := range protocolFiles(t, fset) {
		congestName := importName(pf.f, "repro/internal/congest")
		if congestName == "" {
			continue
		}
		ast.Inspect(pf.f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || len(lit.Elts) == 0 {
				return true
			}
			if sel, ok := lit.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Config" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == congestName {
					t.Errorf("%s: package %s builds a congest.Config of its own: hand the caller's Config on "+
						"and set fields on that copy", fset.Position(lit.Pos()), pf.pkg)
				}
			}
			return true
		})
	}
}

// ckptAllow names the checkpoint walk sites TestCheckpointCensus excuses,
// keyed "file: source line", each with the reason the state it walks is
// live although no conformance cell tells it from zero, or is never
// walked by one.
var ckptAllow = map[string]string{
	"internal/core/list.go: c.Int64(&pl.seq)": "the send heap's tie-break among items due in the same round. " +
		"NextSend picks by (schedule, position) whatever the pop order; the order reaches a Result only through " +
		"Collisions, in a round that pops a late and an on-time entry, which no cell has",
	"internal/core/list.go: c.Int64(&it.time)": "a zeroed due time only makes its item pop at the next NextSend, " +
		"which re-arms it at its entry's true schedule: the lazy heap heals it, up to the pop order pl.seq decides",
	"internal/core/list.go: c.Int64(&it.seq)": "the per-item half of pl.seq's tie-break: same reach",
	"internal/obs/state.go: congest.Varint(c, &p.Wall)": "wall-clock round time: no two runs agree on it, " +
		"so no cell can compare it",
}

// leafWalks are the Codec walks that end in congest's walk hook.
var leafWalks = map[string]bool{
	"Int64": true, "Int": true, "Varint": true, "Bool": true,
	"String": true, "Blob": true, "Ints": true, "Int64s": true, "Bools": true, "Stats": true,
}

// walkSites returns every leaf Codec walk in the repository's non-test
// files as "path:line" → its source line: each call of a leaf walk on a
// *congest.Codec parameter or receiver, and each congest.Varint.
func walkSites(t *testing.T) map[string]string {
	fset := token.NewFileSet()
	sites := map[string]string{}
	err := filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return err
		}
		src, err := os.ReadFile(p)
		if err != nil || !strings.Contains(string(src), "Codec") {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		lines := strings.Split(string(src), "\n")
		// codecs names a function's *Codec receiver and parameters.
		codecs := func(lists ...*ast.FieldList) map[string]bool {
			names := map[string]bool{}
			for _, fl := range lists {
				for _, fd := range fl.List {
					if st, ok := fd.Type.(*ast.StarExpr); ok && strings.HasSuffix(types.ExprString(st.X), "Codec") {
						for _, n := range fd.Names {
							names[n.Name] = true
						}
					}
				}
			}
			return names
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var names map[string]bool
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				names, body = codecs(fn.Type.Params), fn.Body
				if fn.Recv != nil {
					names = codecs(fn.Recv, fn.Type.Params)
				}
			case *ast.FuncLit:
				names, body = codecs(fn.Type.Params), fn.Body
			}
			if len(names) == 0 || body == nil {
				return true
			}
			ast.Inspect(body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				leaf := false
				switch fun := call.Fun.(type) {
				case *ast.SelectorExpr:
					x, _ := fun.X.(*ast.Ident)
					leaf = x != nil && leafWalks[fun.Sel.Name] && (names[x.Name] || (x.Name == "congest" && fun.Sel.Name == "Varint"))
				case *ast.Ident:
					leaf = fun.Name == "Varint"
				}
				if leaf {
					line := fset.Position(call.Pos()).Line
					sites[fmt.Sprintf("%s:%d", filepath.ToSlash(p), line)] = strings.TrimSpace(lines[line-1])
				}
				return true
			})
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sites
}

// TestCheckpointCensus is the forget-a-field census over every checkpoint
// walk. One recording pass kills TestCheckpointConformance's cells under
// the active scheduler and notes which leaf walk sites each kill encodes.
// Then, site by site, the walk hook zeroes what the site decodes and the
// cells that encoded it resume their kill's snapshot again: one must fail. A site no cell fails
// on (a survivor), or none reaches, walks state that is dead, derivable
// or unprobed. It fails the census unless ckptAllow says why it is live,
// and an entry that excuses nothing fails it too.
func TestCheckpointCensus(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	rel := func(site string) string { // runtime.Caller's file, relative to the module
		return strings.TrimPrefix(strings.TrimPrefix(site, root+"/"), "repro/")
	}

	start := time.Now()
	var jobs []func() error     // each resumes one recorded kill under the active scheduler
	var later []bool            // later[j]: job j's snapshot is of an engine run after the first
	reach := map[string][]int{} // relative site → the jobs whose kill encodes it
	restore := congest.HookWalks(func(site string, decoding bool) bool {
		if !decoding {
			site = rel(site)
			if js := reach[site]; len(js) == 0 || js[len(js)-1] != len(jobs) {
				reach[site] = append(js, len(jobs))
			}
		}
		return false
	})
	defer restore() // on a failed recording pass too
	for _, f := range familyRows() {
		for _, in := range f.ckpt {
			bases, err := f.ckptBases(in)
			if err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
			for _, c := range f.ckptCells() {
				k, err := f.kill(in, c, congest.SchedulerActive)
				job := func() error { return f.resume(in, c, congest.SchedulerActive, k, bases) }
				if err == nil && k != nil {
					err = job()
				}
				if err != nil {
					t.Fatalf("%s: %v", f.name, err)
				}
				if k != nil {
					jobs = append(jobs, job)
					later = append(later, c.pr.run > 0)
				}
			}
		}
	}
	restore()
	recording := time.Since(start)

	var slowest string // the site caught took longest on, and its time
	var slowestTime time.Duration
	// caught reports whether one of jobs js fails with site forgotten;
	// workers stop at the first failure.
	caught := func(site string, js []int) bool {
		defer func(t0 time.Time) {
			if d := time.Since(t0); d > slowestTime {
				slowest, slowestTime = site, d
			}
		}(time.Now())
		defer congest.HookWalks(func(s string, decoding bool) bool { return decoding && rel(s) == site })()
		var fails, next atomic.Int32
		var wg sync.WaitGroup
		for range runtime.GOMAXPROCS(0) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := int(next.Add(1)) - 1; j < len(js) && fails.Load() == 0; j = int(next.Add(1)) - 1 {
					func() {
						defer func() {
							if recover() != nil { // a forgotten field may well crash the resumed run
								fails.Add(1)
							}
						}()
						if jobs[js[j]]() != nil {
							fails.Add(1)
						}
					}()
				}
			}()
		}
		wg.Wait()
		return fails.Load() > 0
	}

	sites := walkSites(t)
	excused := map[string]bool{}
	keys := make([]string, 0, len(sites))
	for site := range sites {
		keys = append(keys, site)
	}
	sort.Strings(keys)
	for _, site := range keys {
		verdict := "no checkpoint cell walks it"
		if js := reach[site]; len(js) > 0 {
			// Later-run cells go first: a site that only their snapshots
			// read, such as the run index, is caught without first
			// resuming every run-0 cell that walks it.
			slices.SortStableFunc(js, func(a, b int) int {
				switch {
				case later[a] == later[b]:
					return 0
				case later[a]:
					return -1
				}
				return 1
			})
			if caught(site, js) {
				continue
			}
			verdict = fmt.Sprintf("survives being forgotten in all %d cells that walk it", len(js))
		}
		label := site[:strings.LastIndex(site, ":")] + ": " + sites[site]
		if ckptAllow[label] != "" {
			excused[label] = true
			continue
		}
		t.Errorf("%s (%s): %s: delete the state, derive it on decode, probe it, or allowlist it with a reason", label, site, verdict)
	}
	for label := range ckptAllow {
		if !excused[label] {
			t.Errorf("ckptAllow entry %q excuses nothing; drop it", label)
		}
	}
	t.Logf("%d walk sites, %d recorded cells; recording pass %v, slowest site %s %v",
		len(sites), len(jobs), recording.Round(time.Millisecond), slowest, slowestTime.Round(time.Millisecond))
}
