package reach

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The scanner behind the reachability check. It type-checks the non-test
// files of one or more modules from source (the standard library comes
// from the toolchain's export data) and answers two questions:
//
//   - which functions and methods no program reaches, and
//   - which exported fields of …Config and …Options structs no program
//     sets.
//
// Roots are every main function, every init function and every
// package-level variable initializer of a package some main links. An
// edge is an identifier use in a non-test file: a function body reaches
// every function, method and type it names. A method is reached when a
// reached body calls it directly, or when its receiver type is reached
// and some reached body calls a method of the same name through an
// interface. The standard library's interfaces count as such calls, so
// String, Error or MarshalJSON on a reached type stay reached: methods
// are under-reported, never over-reported.

// module is one Go module to scan: its path and its directory.
type module struct{ path, dir string }

// pkg is one type-checked package.
type pkg struct {
	path, name string
	files      []*ast.File
	types      *types.Package
	info       *types.Info
}

// program is every package of the scanned modules, loaded on demand.
type program struct {
	fset    *token.FileSet
	modules []module
	pkgs    map[string]*pkg
	order   []*pkg // in load order: a package follows its imports
	std     types.Importer
	stdPkgs map[string]*types.Package
}

func newProgram(mods ...module) *program {
	fset := token.NewFileSet()
	return &program{
		fset:    fset,
		modules: mods,
		pkgs:    make(map[string]*pkg),
		std:     importer.ForCompiler(fset, "gc", nil),
		stdPkgs: make(map[string]*types.Package),
	}
}

// dirOf returns the directory of a module package, or "" for a path no
// scanned module holds. The longest module path wins, so a nested module
// (tca/bench inside tca) owns its own directories.
func (p *program) dirOf(path string) string {
	best, dir := -1, ""
	for _, m := range p.modules {
		if path == m.path && len(m.path) > best {
			best, dir = len(m.path), m.dir
		} else if strings.HasPrefix(path, m.path+"/") && len(m.path) > best {
			best, dir = len(m.path), filepath.Join(m.dir, filepath.FromSlash(path[len(m.path)+1:]))
		}
	}
	return dir
}

// Import implements types.Importer over the scanned modules and the
// standard library.
func (p *program) Import(path string) (*types.Package, error) {
	if p.dirOf(path) == "" {
		t, err := p.std.Import(path)
		if err == nil {
			p.stdPkgs[path] = t
		}
		return t, err
	}
	q, err := p.load(path)
	if err != nil {
		return nil, err
	}
	return q.types, nil
}

// load parses and type-checks one module package (its non-test files
// under the default build context).
func (p *program) load(path string) (*pkg, error) {
	if q, ok := p.pkgs[path]; ok {
		if q.types == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return q, nil
	}
	dir := p.dirOf(path)
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	q := &pkg{path: path, name: bp.Name}
	p.pkgs[path] = q
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		q.files = append(q.files, f)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: p}
	t, err := conf.Check(path, p.fset, q.files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	q.types, q.info = t, info
	p.order = append(p.order, q)
	return q, nil
}

// loadAll loads every package directory of every module, skipping what
// the go command skips (testdata, and directories starting with . or _)
// and nested modules.
func (p *program) loadAll() error {
	for _, m := range p.modules {
		err := filepath.WalkDir(m.dir, func(dir string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			base := d.Name()
			if dir != m.dir {
				if base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			if _, err := build.Default.ImportDir(dir, 0); err != nil {
				return nil // no buildable non-test files
			}
			rel, _ := filepath.Rel(m.dir, dir)
			path := m.path
			if rel != "." {
				path += "/" + filepath.ToSlash(rel)
			}
			_, err = p.load(path)
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// entry is one line of a list: a qualified name and the lines it spans
// (a function's declaration; 1 for a setting).
type entry struct {
	name  string
	pkg   string
	lines int
	pos   token.Position
}

// result is the scanner's answer.
type result struct {
	unreached []entry // functions and methods no root reaches
	unset     []entry // settings no non-test code sets
}

// recvType returns the declared receiver type of a method, or nil.
func recvType(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// funcName qualifies a declared function: pkg.F, or pkg.T.M for a method.
func funcName(fn *types.Func) string {
	if tn := recvType(fn); tn != nil {
		return fn.Pkg().Path() + "." + tn.Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// implicitIface names methods called through interfaces that no imported
// package scope lists: the universe's error, and the ones errors.Is, As
// and Unwrap declare inside their bodies.
var implicitIface = []string{"Error", "Unwrap", "Is", "As"}

// scan loads the modules and computes both lists.
func scan(mods ...module) (*result, error) {
	p := newProgram(mods...)
	if err := p.loadAll(); err != nil {
		return nil, err
	}

	// Every declared function, and what each declaration names.
	type decl struct {
		q    *pkg
		fd   *ast.FuncDecl
		uses []types.Object
	}
	funcs := make(map[*types.Func]*decl)
	typeUses := make(map[*types.TypeName][]types.Object)
	uses := func(q *pkg, n ast.Node) []types.Object {
		var out []types.Object
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := q.info.Uses[id]; obj != nil {
					out = append(out, obj)
				}
			}
			return true
		})
		return out
	}
	var roots []types.Object
	linked := make(map[string]bool)
	var link func(t *types.Package)
	link = func(t *types.Package) {
		if linked[t.Path()] || p.pkgs[t.Path()] == nil {
			return
		}
		linked[t.Path()] = true
		for _, imp := range t.Imports() {
			link(imp)
		}
	}
	for _, q := range p.order {
		if q.name == "main" {
			link(q.types)
		}
	}
	for _, q := range p.order {
		for _, f := range q.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := q.info.Defs[d.Name].(*types.Func)
					funcs[fn] = &decl{q: q, fd: d, uses: uses(q, d)}
					if linked[q.path] && d.Recv == nil && (d.Name.Name == "init" || q.name == "main" && d.Name.Name == "main") {
						roots = append(roots, fn)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if tn, ok := q.info.Defs[s.Name].(*types.TypeName); ok {
								typeUses[tn] = uses(q, s)
							}
						case *ast.ValueSpec:
							if d.Tok == token.VAR && linked[q.path] {
								roots = append(roots, uses(q, s)...)
							}
						}
					}
				}
			}
		}
	}

	// Method names some interface call may dispatch to.
	ifaceNames := make(map[string]bool)
	for _, n := range implicitIface {
		ifaceNames[n] = true
	}
	for _, t := range p.stdPkgs {
		for _, n := range t.Scope().Names() {
			if tn, ok := t.Scope().Lookup(n).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumMethods(); i++ {
						ifaceNames[it.Method(i).Name()] = true
					}
				}
			}
		}
	}

	reachedFn := make(map[*types.Func]bool)
	reachedType := make(map[*types.TypeName]bool)
	var work []types.Object
	var visit func(obj types.Object)
	visit = func(obj types.Object) {
		switch obj := obj.(type) {
		case *types.Func:
			fn := obj.Origin()
			if sig := fn.Type().(*types.Signature); sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				ifaceNames[fn.Name()] = true
				return
			}
			if _, ok := funcs[fn]; ok && !reachedFn[fn] {
				reachedFn[fn] = true
				work = append(work, fn)
			}
		case *types.TypeName:
			if _, ok := typeUses[obj]; ok && !reachedType[obj] {
				reachedType[obj] = true
				work = append(work, obj)
			}
		}
	}
	for _, r := range roots {
		visit(r)
	}
	for {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			var next []types.Object
			switch obj := obj.(type) {
			case *types.Func:
				next = funcs[obj].uses
			case *types.TypeName:
				next = typeUses[obj]
			}
			for _, n := range next {
				visit(n)
			}
		}
		// Methods of reached types that an interface call may reach.
		for fn := range funcs {
			if tn := recvType(fn); tn != nil && !reachedFn[fn] && reachedType[tn] && ifaceNames[fn.Name()] {
				visit(fn)
			}
		}
		if len(work) == 0 {
			break
		}
	}

	res := &result{}
	for fn, d := range funcs {
		if reachedFn[fn] {
			continue
		}
		start, end := p.fset.Position(d.fd.Pos()), p.fset.Position(d.fd.End())
		res.unreached = append(res.unreached, entry{
			name: funcName(fn), pkg: d.q.path, lines: end.Line - start.Line + 1, pos: start,
		})
	}
	res.unset = p.unsetSettings()
	sortEntries(res.unreached)
	sortEntries(res.unset)
	return res, nil
}

func sortEntries(es []entry) {
	sort.Slice(es, func(i, j int) bool { return es[i].name < es[j].name })
}

// isSettingsType reports whether a declared type holds settings: a struct
// named …Config or …Options.
func isSettingsType(tn *types.TypeName) bool {
	if !strings.HasSuffix(tn.Name(), "Config") && !strings.HasSuffix(tn.Name(), "Options") {
		return false
	}
	_, ok := tn.Type().Underlying().(*types.Struct)
	return ok
}

// unsetSettings lists the exported fields of settings types that no
// non-test code sets. A constant that the declaring package writes in its
// own Default… function, or under an if that reads the same field (a
// constructor's "zero means the default"), is a default, not a setting.
func (p *program) unsetSettings() []entry {
	type setting struct {
		owner *types.TypeName
		pos   token.Position
	}
	settings := make(map[*types.Var]setting)
	for _, q := range p.order {
		for _, n := range q.types.Scope().Names() {
			tn, ok := q.types.Scope().Lookup(n).(*types.TypeName)
			if !ok || !isSettingsType(tn) {
				continue
			}
			st := tn.Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					settings[f] = setting{owner: tn, pos: p.fset.Position(f.Pos())}
				}
			}
		}
	}
	set := make(map[*types.Var]bool)
	for _, q := range p.order {
		field := func(e ast.Expr) *types.Var {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if v, ok := q.info.Uses[sel.Sel].(*types.Var); ok {
					return v.Origin()
				}
			}
			return nil
		}
		for _, f := range q.files {
			for _, d := range f.Decls {
				fd, isFunc := d.(*ast.FuncDecl)
				inDefault := isFunc && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Default")
				// checked holds, per enclosing if, the fields its condition
				// reads.
				var stack []ast.Node
				var checked []map[*types.Var]bool
				// write records that v gets val (nil: a value not known).
				write := func(v *types.Var, val ast.Expr) {
					if v == nil {
						return
					}
					v = v.Origin()
					if _, ok := settings[v]; !ok {
						return
					}
					if v.Pkg() == q.types && val != nil && q.info.Types[val].Value != nil {
						if inDefault {
							return
						}
						for _, c := range checked {
							if c[v] {
								return // if x.F == 0 { x.F = default }
							}
						}
					}
					set[v] = true
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if n == nil {
						if _, ok := stack[len(stack)-1].(*ast.IfStmt); ok {
							checked = checked[:len(checked)-1]
						}
						stack = stack[:len(stack)-1]
						return true
					}
					stack = append(stack, n)
					switch n := n.(type) {
					case *ast.IfStmt:
						reads := make(map[*types.Var]bool)
						ast.Inspect(n.Cond, func(c ast.Node) bool {
							if e, ok := c.(ast.Expr); ok {
								if v := field(e); v != nil {
									reads[v] = true
								}
							}
							return true
						})
						checked = append(checked, reads)
					case *ast.AssignStmt:
						for i, l := range n.Lhs {
							var val ast.Expr
							if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
								val = n.Rhs[i]
							}
							write(field(l), val)
						}
					case *ast.IncDecStmt:
						write(field(n.X), nil)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							write(field(n.X), nil)
						}
					case *ast.CompositeLit:
						st, ok := q.info.Types[n].Type.Underlying().(*types.Struct)
						if !ok {
							return true
						}
						for i, el := range n.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								id, _ := kv.Key.(*ast.Ident)
								v, _ := q.info.Uses[id].(*types.Var)
								write(v, kv.Value)
							} else {
								write(st.Field(i), el)
							}
						}
					}
					return true
				})
			}
		}
	}
	var out []entry
	for v, s := range settings {
		if !set[v] {
			out = append(out, entry{
				name: s.owner.Pkg().Path() + "." + s.owner.Name() + "." + v.Name(),
				pkg:  s.owner.Pkg().Path(), lines: 1, pos: s.pos,
			})
		}
	}
	return out
}
