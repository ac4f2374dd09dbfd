package llmservingsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keptExports are exported internal functions and methods that no
// production path calls but that stay on purpose, each with its reason.
var keptExports = map[string]string{
	"internal/kvcache.Manager.Invariant":  "test hook: checks the manager's accounting after random operation sequences",
	"internal/kvcache.Manager.Evicted":    "test hook: observes eviction state",
	"internal/kvcache.Manager.Tokens":     "test hook: observes per-sequence token counts",
	"internal/kvcache.Manager.SeqBytes":   "test hook: observes per-sequence footprint",
	"internal/kvcache.Manager.PageBytes":  "test hook: observes the page size",
	"internal/kvcache.Manager.FreePages":  "test hook: observes the free page count",
	"internal/engine.Cache.Sizes":         "test hook: observes the result cache's occupancy",
	"internal/engine/npu.Instructions":    "observable output of the compile walk that model-redundancy reuse saves",
	"internal/model.Roofline":             "reproduces paper Fig. 2b via BenchmarkFig2bRoofline",
	"internal/model.RooflineOps":          "reproduces paper Fig. 2b via BenchmarkFig2bRoofline",
	"internal/graph.Convert":              "test convenience over ConvertInto with many call sites",
	"internal/core.ReuseAll":              "test convenience naming the all-reuse configuration, with many call sites",
	"internal/core.ReuseNone":             "test convenience naming the no-reuse configuration, with many call sites",
	"internal/astra.CriticalPath":         "structural oracle: perfmodel/astra's tests check it covers a serial iteration's makespan",
	"internal/trace.Serial":               "reference schedule for the trace tests",
	"internal/trace.Schedule.Utilization": "reference schedule accounting for the trace tests",
}

// stdMethods are method names that standard-library interfaces call
// implicitly (fmt, errors, sort, container/heap, encoding, io, flag), so
// no selector in this module need name them.
var stdMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Read": true, "Write": true, "Close": true, "Set": true,
}

// exportDecl is one top-level declaration: a function, a method, or a
// type, var or const spec.
type exportDecl struct {
	pkg   string // directory relative to the repository root ("." for the root)
	recv  string // receiver type name, for methods
	name  string
	node  ast.Node
	file  *exportFile
	live  bool
	isVar bool
}

type exportFile struct {
	pkg     string
	imports map[string]string // local name -> package directory
}

// TestNoTestOnlyExports fails on each exported function, or exported
// method of an exported type, under internal/ that no live non-test code
// reaches. Live code is the public API of the root package, every main
// and init function and package-level variable (in cmd/, examples/ and
// perfbench/ too), and, transitively, whatever those name. References
// are resolved by name: a selector x.M keeps every method called M.
func TestNoTestOnlyExports(t *testing.T) {
	decls, byPkg, methods := parseModule(t)

	var queue []*exportDecl
	mark := func(d *exportDecl) {
		if !d.live {
			d.live = true
			queue = append(queue, d)
		}
	}
	selected := map[string]bool{}
	selectName := func(name string) {
		if selected[name] {
			return
		}
		selected[name] = true
		for _, d := range methods[name] {
			mark(d)
		}
	}
	for name := range stdMethods {
		selectName(name)
	}
	for _, d := range decls {
		root := d.pkg == "." && ast.IsExported(d.name) && (d.recv == "" || ast.IsExported(d.recv))
		if root || d.isVar || (d.recv == "" && (d.name == "main" || d.name == "init")) {
			mark(d)
		}
	}
	propagate := func() {
		for len(queue) > 0 {
			d := queue[0]
			queue = queue[1:]
			if d.recv != "" {
				if recv := byPkg[d.pkg][d.recv]; recv != nil {
					mark(recv)
				}
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if dir, ok := d.file.imports[x.Name]; ok {
							if target := byPkg[dir][n.Sel.Name]; target != nil {
								mark(target)
							}
						}
					}
					selectName(n.Sel.Name)
					ast.Inspect(n.X, visit)
					return false
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, name := range m.Names {
							selectName(name.Name)
						}
					}
				case *ast.Ident:
					if target := byPkg[d.pkg][n.Name]; target != nil {
						mark(target)
					}
				}
				return true
			}
			switch n := d.node.(type) {
			case *ast.FuncDecl:
				// Not the declared name: a method M does not use a function M.
				if n.Recv != nil {
					ast.Inspect(n.Recv, visit)
				}
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
			case *ast.TypeSpec:
				ast.Inspect(n.Type, visit)
			default:
				ast.Inspect(n, visit)
			}
		}
	}
	propagate()

	// Unreached exported functions and methods; kept ones are then roots
	// too, so what only they call is not reported.
	unreached := map[string]*exportDecl{}
	for _, d := range decls {
		if d.live || !strings.HasPrefix(d.pkg, "internal/") || !ast.IsExported(d.name) {
			continue
		}
		if _, isFunc := d.node.(*ast.FuncDecl); !isFunc || (d.recv != "" && !ast.IsExported(d.recv)) {
			continue
		}
		key := d.pkg + "." + d.name
		if d.recv != "" {
			key = d.pkg + "." + d.recv + "." + d.name
		}
		unreached[key] = d
	}
	for key := range keptExports {
		if d, ok := unreached[key]; ok {
			mark(d)
		} else {
			t.Errorf("keptExports lists %s, which is live or gone: drop the entry", key)
		}
	}
	propagate()

	var dead []string
	for key, d := range unreached {
		if !d.live {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s is exported but only test code reaches it: delete it, or add it to keptExports with the reason it stays", key)
	}
}

// parseModule parses every non-test Go file under the repository root,
// the nested perfbench module included, and indexes its top-level
// declarations by package directory and methods by name.
func parseModule(t *testing.T) ([]*exportDecl, map[string]map[string]*exportDecl, map[string][]*exportDecl) {
	t.Helper()
	var decls []*exportDecl
	byPkg := map[string]map[string]*exportDecl{}
	methods := map[string][]*exportDecl{}
	add := func(d *exportDecl) {
		decls = append(decls, d)
		if d.recv != "" {
			methods[d.name] = append(methods[d.name], d)
			return
		}
		if byPkg[d.pkg] == nil {
			byPkg[d.pkg] = map[string]*exportDecl{}
		}
		byPkg[d.pkg][d.name] = d
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
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
		ef := &exportFile{pkg: filepath.ToSlash(filepath.Dir(path)), imports: map[string]string{}}
		for _, imp := range f.Imports {
			// Every package the scan resolves is in module "repro"; the
			// perfbench module imports it through a replace directive.
			ipath, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(ipath, "repro/")
			if !ok {
				continue
			}
			name := filepath.Base(dir)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			ef.imports[name] = dir
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				add(&exportDecl{pkg: ef.pkg, recv: recvName(decl), name: decl.Name.Name, node: decl, file: ef})
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(&exportDecl{pkg: ef.pkg, name: spec.Name.Name, node: spec, file: ef})
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							add(&exportDecl{pkg: ef.pkg, name: name.Name, node: spec, file: ef, isVar: decl.Tok == token.VAR})
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if byPkg["internal/cluster"] == nil {
		t.Fatal("module sources not found: run from the repository root")
	}
	return decls, byPkg, methods
}

// recvName returns a method's receiver type name, or "" for a function.
func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
