package sage_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// surfaceKeep lists identifiers that no program reaches but that stay,
// each with the reason. Keys are "<dir>.<Name>" or "<dir>.<Type>.<Method>",
// with <dir> the package directory relative to the module root. An entry
// is a root for the rest of the check, so what only it reaches needs no
// entry of its own. TestSurface fails on an entry that a program reaches
// again or that no longer exists, so the list stays exact.
var surfaceKeep = map[string]string{
	// Called by tests only.
	"internal/genome.MustFromString":       "test fixture constructor the tests of seven packages share",
	"internal/shard.Predicate.MatchRecord": "the record-level oracle the shard, serve and instorage tests hold MatchText's readers (Filter, /query, FilterScan) to",
	"internal/ssd.SSD.Stats":               "device counters the in-storage pruning and GC tests assert on",
}

// optionFields is the number of exported fields of exported *Options and
// *Config structs in the module's non-test code outside benchmark/: the
// values a caller can set. TestOptionFields pins it, so a new knob has to
// change this number in the same diff.
const optionFields = 29

// surfaceCache is the graph the first loadSurface of a test run built.
var surfaceCache *surfaceGraph

// stdMethodNames are the methods of common standard-library interfaces.
// A live type's method of one of these names may be called through such
// an interface (fmt, io, sort, container/heap, encoding/json, flag,
// net/http, errors), which a reference graph does not see.
var stdMethodNames = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"Read": true, "Write": true, "Close": true, "ReadAt": true, "WriteAt": true,
	"Seek": true, "ReadFrom": true, "WriteTo": true, "ReadByte": true,
	"UnreadByte": true, "WriteByte": true, "WriteString": true, "ReadRune": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Next": true, "Set": true, "ServeHTTP": true, "WriteHeader": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// TestSurface fails on every exported identifier that no program of the
// repository reaches and on every unexported one that nothing references.
//
// It type-checks the module's non-test files for the default build
// context, cgo off, and follows references from the roots: the main packages under
// cmd/ and examples/ (their main and init funcs), every non-test file of
// the benchmark/ module, and the initialisers of package-level vars,
// which run when their package is imported. A method is live when its
// receiver type is live and it is referenced, or its name is a method
// of an interface declared in the module or of a common standard-library
// interface (stdMethodNames).
func TestSurface(t *testing.T) {
	g := loadSurface(t)

	live := g.reach(nil)
	var keepRoots []types.Object
	for _, key := range slices.Sorted(maps.Keys(surfaceKeep)) {
		obj, ok := g.byKey[key]
		switch {
		case !ok:
			t.Errorf("surfaceKeep: %s no longer exists; drop its entry", key)
		case strings.TrimSpace(surfaceKeep[key]) == "":
			t.Errorf("surfaceKeep: %s has no reason", key)
		case live[obj]:
			t.Errorf("surfaceKeep: %s is reached by a program again; drop its entry", key)
		default:
			keepRoots = append(keepRoots, obj)
		}
	}
	live = g.reach(keepRoots)

	var fails []string
	for _, obj := range g.decls {
		key := g.key(obj)
		if _, kept := surfaceKeep[key]; kept {
			continue
		}
		switch {
		case obj.Exported() && !live[obj]:
			if recv := g.recvType(obj); recv != nil && !live[recv] {
				continue // reported with its type
			}
			fails = append(fails, g.pos(obj)+": "+key+" is exported but no program reaches it")
		case !obj.Exported() && g.refs[obj] == 0 && !g.methodNameLive(obj):
			fails = append(fails, g.pos(obj)+": "+key+" is referenced by nothing")
		}
	}
	slices.Sort(fails)
	for _, f := range fails {
		t.Error(f)
	}
	if len(fails) > 0 {
		t.Log("delete each identifier above, or add it to surfaceKeep with the reason it stays")
	}
}

// TestOptionFields fails, listing every option struct and its exported
// fields, unless those fields number optionFields.
func TestOptionFields(t *testing.T) {
	g := loadSurface(t)
	n := 0
	var structs []string
	for _, obj := range g.decls {
		tn, ok := obj.(*types.TypeName)
		if !ok || !tn.Exported() || !strings.HasSuffix(tn.Name(), "Options") && !strings.HasSuffix(tn.Name(), "Config") {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		var fields []string
		for f := range st.Fields() {
			if f.Exported() {
				fields = append(fields, f.Name())
			}
		}
		n += len(fields)
		structs = append(structs, g.pos(tn)+": "+g.key(tn)+" {"+strings.Join(fields, ", ")+"}")
	}
	if n != optionFields {
		slices.Sort(structs)
		t.Errorf("%d exported option fields, pinned at %d; make a field that takes one value a constant, or change the pin:\n%s",
			n, optionFields, strings.Join(structs, "\n"))
	}
}

// surfaceGraph is the reference graph between the module's package-level
// objects and methods.
type surfaceGraph struct {
	root    string
	modPath string
	fset    *token.FileSet
	decls   []types.Object // checked declarations, in source order
	byKey   map[string]types.Object
	edges   map[types.Object][]types.Object
	refs    map[types.Object]int  // references from roots and other declarations
	roots   map[types.Object]bool // program roots
	// ifaceNames holds the method names of every interface in the module.
	ifaceNames map[string]bool
	methods    map[*types.TypeName][]*types.Func
}

func loadSurface(t *testing.T) *surfaceGraph {
	t.Helper()
	if surfaceCache != nil {
		return surfaceCache
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	modPath := ""
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	if modPath == "" {
		t.Fatal("go.mod names no module")
	}

	// Type-check the pure-Go variant of every package: the module has no
	// cgo, and the standard library's cgo files would need a C compiler.
	build.Default.CgoEnabled = false

	g := &surfaceGraph{
		root:       root,
		modPath:    modPath,
		fset:       token.NewFileSet(),
		byKey:      make(map[string]types.Object),
		edges:      make(map[types.Object][]types.Object),
		refs:       make(map[types.Object]int),
		roots:      make(map[types.Object]bool),
		ifaceNames: make(map[string]bool),
		methods:    make(map[*types.TypeName][]*types.Func),
	}
	l := &surfaceLoader{
		g:    g,
		std:  importer.ForCompiler(g.fset, "source", nil),
		pkgs: make(map[string]*types.Package),
		info: &types.Info{Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)},
	}

	var dirs []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		rel, _ := filepath.Rel(root, dir)
		path := modPath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if _, err := l.load(path); err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				continue
			}
			t.Fatal(err)
		}
	}
	if len(g.decls) == 0 {
		t.Fatal("no declarations found")
	}
	surfaceCache = g
	return g
}

// surfaceLoader type-checks the module's packages from source, each once,
// and the standard library through the source importer.
type surfaceLoader struct {
	g    *surfaceGraph
	std  types.Importer
	pkgs map[string]*types.Package
	info *types.Info
}

func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	if path == l.g.modPath || strings.HasPrefix(path, l.g.modPath+"/") {
		return l.load(path)
	}
	return l.std.Import(path)
}

func (l *surfaceLoader) load(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.g.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.g.modPath), "/")))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.g.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.g.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	l.g.add(p, files, l.info, path == l.g.modPath+"/benchmark" || strings.HasPrefix(path, l.g.modPath+"/benchmark/"))
	return p, nil
}

// add records a type-checked package's declarations and references. A
// benchmark package is all roots and none of its declarations is checked.
func (g *surfaceGraph) add(p *types.Package, files []*ast.File, info *types.Info, benchmark bool) {
	mainPkg := p.Name() == "main"
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, name := range m.Names {
						g.ifaceNames[name.Name] = true
					}
				}
			}
			return true
		})
		if benchmark {
			g.link(nil, f, info)
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj := info.Defs[d.Name]
				if d.Recv == nil && (d.Name.Name == "init" || mainPkg && d.Name.Name == "main") {
					g.link(nil, d, info)
					continue
				}
				if g.recvType(obj) == nil && d.Recv != nil {
					continue // method of a non-package-level type
				}
				g.declare(obj)
				g.link(obj, d, info)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						obj := info.Defs[s.Name]
						g.declare(obj)
						g.link(obj, s, info)
						if tn, ok := obj.(*types.TypeName); ok {
							if named, ok := tn.Type().(*types.Named); ok {
								for i := 0; i < named.NumMethods(); i++ {
									g.methods[tn] = append(g.methods[tn], named.Method(i))
								}
							}
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.Name == "_" {
								g.link(nil, s, info)
								continue
							}
							obj := info.Defs[name]
							g.declare(obj)
							g.link(obj, s, info)
						}
						if len(s.Values) > 0 {
							// Initialisers run on import.
							for _, v := range s.Values {
								g.link(nil, v, info)
							}
						}
					}
				}
			}
		}
	}
}

func (g *surfaceGraph) declare(obj types.Object) {
	if obj == nil {
		return
	}
	g.decls = append(g.decls, obj)
	g.byKey[g.key(obj)] = obj
}

// link records the module objects node references as edges from src, or
// as roots when src is nil.
func (g *surfaceGraph) link(src types.Object, node ast.Node, info *types.Info) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		dst := g.node(info.Uses[id])
		if dst == nil || dst == src {
			return true
		}
		if src == nil {
			g.roots[dst] = true
		} else {
			g.edges[src] = append(g.edges[src], dst)
		}
		g.refs[dst]++
		return true
	})
}

// node maps a referenced object to its graph node: a package-level
// object or a method of a package-level type of the module, or nil.
func (g *surfaceGraph) node(obj types.Object) types.Object {
	if obj == nil || obj.Pkg() == nil {
		return nil
	}
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
		if g.recvType(obj) != nil {
			break
		}
		if obj.Parent() != obj.Pkg().Scope() {
			return nil
		}
	case *types.Var, *types.Const, *types.TypeName:
		if obj.Parent() != obj.Pkg().Scope() {
			return nil
		}
	default:
		return nil
	}
	if path := obj.Pkg().Path(); path != g.modPath && !strings.HasPrefix(path, g.modPath+"/") {
		return nil
	}
	return obj
}

// recvType returns the package-level named type a method is declared on,
// or nil when obj is not such a method.
func (g *surfaceGraph) recvType(obj types.Object) *types.TypeName {
	f, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := f.Signature().Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	tn := named.Origin().Obj()
	if tn.Parent() != tn.Pkg().Scope() {
		return nil
	}
	return tn
}

// methodNameLive reports whether obj is a method whose name some
// interface may call.
func (g *surfaceGraph) methodNameLive(obj types.Object) bool {
	return g.recvType(obj) != nil && (g.ifaceNames[obj.Name()] || stdMethodNames[obj.Name()])
}

// reach returns the objects the roots, plus extra, reach.
func (g *surfaceGraph) reach(extra []types.Object) map[types.Object]bool {
	live := make(map[types.Object]bool)
	var queue []types.Object
	var mark func(types.Object)
	mark = func(obj types.Object) {
		if live[obj] {
			return
		}
		live[obj] = true
		queue = append(queue, obj)
		if recv := g.recvType(obj); recv != nil {
			mark(recv)
		}
		if tn, ok := obj.(*types.TypeName); ok {
			for _, m := range g.methods[tn] {
				if g.methodNameLive(m) {
					mark(m)
				}
			}
		}
	}
	for obj := range g.roots {
		mark(obj)
	}
	for _, obj := range extra {
		mark(obj)
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		for _, dst := range g.edges[obj] {
			mark(dst)
		}
	}
	return live
}

// key names obj as "<dir>.<Name>" or "<dir>.<Type>.<Method>".
func (g *surfaceGraph) key(obj types.Object) string {
	dir := strings.TrimPrefix(obj.Pkg().Path(), g.modPath+"/")
	if recv := g.recvType(obj); recv != nil {
		return dir + "." + recv.Name() + "." + obj.Name()
	}
	return dir + "." + obj.Name()
}

func (g *surfaceGraph) pos(obj types.Object) string {
	p := g.fset.Position(obj.Pos())
	rel, err := filepath.Rel(g.root, p.Filename)
	if err != nil {
		rel = p.Filename
	}
	return rel + ":" + strconv.Itoa(p.Line)
}
