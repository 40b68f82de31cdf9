package apsp

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/congest"
	"repro/internal/difftest"
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

	"repro/internal/checkpoint.Save":   "the fixture re-seal step (Load, then Save); Keeper saves through the unexported save",
	"repro/internal/congest.HookWalks": "test seam: TestCheckpointCensus forgets one checkpoint walk site at a time through it",
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
	"internal/faults/state.go: c.Uint64(&(*q)[i].key)": "orders one round's Unreliable-mode deliveries before " +
		"the stable (To, From) sort, so it decides only the order of messages one link delivers in one round; " +
		"no cell's result depends on it, and ArrivalOrder, which exposes wire order, is test-only",
	"internal/faults/state.go: c.Int64(&nw.flightCtr)": "keys the PRF of Reorder's arrival shuffle and of " +
		"the Unreliable queue key: under the reliability shim inboxes are reassembled in canonical order, so only " +
		"the test-only ArrivalOrder mode, and key's reach above, expose it",
	"internal/obs/state.go: congest.Varint(c, &p.Wall)": "wall-clock round time: no two runs agree on it, " +
		"so no cell can compare it",
}

// leafWalks are the Codec walks that end in congest's walk hook.
var leafWalks = map[string]bool{
	"Uint64": true, "Int64": true, "Int": true, "Varint": true, "Bool": true,
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
// walk. One recording pass runs TestCheckpointConformance's cells and
// notes which leaf walk sites each kill encodes. Then, site by site, the
// walk hook zeroes what the site decodes and the cells that encoded it
// resume their kill's snapshot again: one must fail. A site no cell fails
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

	type job struct {
		f      familyRow
		in     difftest.Instance
		c      ckptCell
		killed *killed
		bases  ckptBases
	}
	var jobs []job
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
				k, err := f.kill(in, c)
				if err == nil && k != nil {
					err = f.resume(in, c, c.sched, k, bases)
				}
				if err != nil {
					t.Fatalf("%s: %v", f.name, err)
				}
				if k != nil {
					jobs = append(jobs, job{f, in, c, k, bases})
				}
			}
		}
	}
	restore()

	// caught reports whether one of jobs js fails with site forgotten;
	// workers stop at the first failure.
	caught := func(site string, js []int) bool {
		defer congest.HookWalks(func(s string, decoding bool) bool { return decoding && rel(s) == site })()
		var fails atomic.Int32
		next := make(chan int)
		var wg sync.WaitGroup
		for range runtime.GOMAXPROCS(0) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range next {
					func() {
						defer func() {
							if recover() != nil { // a forgotten field may well crash the resumed run
								fails.Add(1)
							}
						}()
						jb := jobs[j]
						if err := jb.f.resume(jb.in, jb.c, jb.c.sched, jb.killed, jb.bases); err != nil {
							fails.Add(1)
						}
					}()
				}
			}()
		}
		for _, j := range js {
			if fails.Load() > 0 {
				break
			}
			next <- j
		}
		close(next)
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
	t.Logf("%d walk sites, %d recorded cells", len(sites), len(jobs))
}
