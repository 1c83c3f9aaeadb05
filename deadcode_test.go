package ftsg

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
	"testing"
)

// deadcodeAllow names the declarations under internal/ that no program
// reaches but a test in another package compares against. Each value names
// that test. An entry that a program starts to reach, or whose declaration
// goes, fails the test too, so the list never outlives its reason.
var deadcodeAllow = map[string]string{
	"grid.Grid.At":             "pde: TestPeriodicConsistency, TestMassConservation and TestGatherAssemblesWholeGrid read cells",
	"grid.Grid.MaxError":       "combine: TestCombinationExactForConstant and TestCombinationExactForBilinear bound the pointwise error",
	"grid.L1Diff":              "pde: TestParallelMatchesSerial and TestSetFromGrid compare the parallel solver with the serial one",
	"trace.Recorder.OpenSpans": "core: TestRecoveryTimelineSpans requires every span closed",
	"trace.Recorder.SpanCount": "core: TestRecoveryTimelineSpans counts spans by phase",
	"vtime.Machine.PtToPt":     "mpi: TestVirtualClockMessageLatency checks a message's arrival time against the LogGP cost",
}

// TestEveryInternalDeclarationIsReachable type-checks the module's non-test
// code and fails on any top-level declaration under internal/ that no
// program reaches. The roots are every main, every init and every
// package-level var. A method is reached when something names it, or when
// its receiver type is reached and the method implements either a
// standard-library interface the type satisfies (Unwrap counts for error
// types: package errors calls it through an unnamed interface) or a module
// interface method that some reached code calls. For a generic type the
// test asks this of each instantiation that reached code names, and a
// method an instantiation needs keeps the generic method it comes from.
func TestEveryInternalDeclarationIsReachable(t *testing.T) {
	s := &reachScan{
		fset:   token.NewFileSet(),
		pkgs:   map[string]*scanPkg{},
		live:   map[types.Object]bool{},
		called: map[*types.Func]bool{},
		insts:  map[*types.TypeName][]*types.Named{},
	}
	s.std = importer.ForCompiler(s.fset, "source", nil).(types.ImporterFrom)
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	s.root = root
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, path)
		ip := modulePath
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		if _, err := s.load(ip); err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	dead := s.unreached()
	var unexpected []string
	for _, d := range dead {
		if _, ok := deadcodeAllow[d.name]; !ok {
			unexpected = append(unexpected, fmt.Sprintf("%s (%s)", d.name, d.pos))
		}
	}
	if len(unexpected) > 0 {
		t.Errorf("%d declarations under internal/ are reached by no program; "+
			"delete them, move them into a _test.go file, or allowlist one "+
			"that another package's test needs:\n\t%s",
			len(unexpected), strings.Join(unexpected, "\n\t"))
	}
	deadNames := map[string]bool{}
	for _, d := range dead {
		deadNames[d.name] = true
	}
	for name, why := range deadcodeAllow {
		if why == "" {
			t.Errorf("allowlist entry %s gives no reason", name)
		}
		if !deadNames[name] {
			t.Errorf("allowlist entry %s is reached by a program or no longer declared; drop it", name)
		}
	}
}

const modulePath = "ftsg"

type scanPkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// scanDecl is one top-level declaration: a func, a method, or one name of
// a type, var or const spec.
type scanDecl struct {
	node ast.Node
	info *types.Info
}

type reachScan struct {
	fset  *token.FileSet
	root  string
	std   types.ImporterFrom
	pkgs  map[string]*scanPkg
	order []*scanPkg
	decls map[types.Object][]scanDecl
	roots []scanDecl
	live  map[types.Object]bool
	work  []types.Object
	// called holds the module interface methods reached code calls.
	called map[*types.Func]bool
	// insts holds, per generic module type, the instantiations reached
	// code names.
	insts map[*types.TypeName][]*types.Named
}

func (s *reachScan) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, s.root, 0)
}

func (s *reachScan) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == modulePath || strings.HasPrefix(path, modulePath+"/") {
		p, err := s.load(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return s.std.ImportFrom(path, dir, mode)
}

// load parses and type-checks the non-test files of one module package,
// its module imports first.
func (s *reachScan) load(path string) (*scanPkg, error) {
	if p, ok := s.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	s.pkgs[path] = nil
	dir := filepath.Join(s.root, filepath.FromSlash(strings.TrimPrefix(path, modulePath)))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		delete(s.pkgs, path)
		return nil, err
	}
	p := &scanPkg{info: &types.Info{
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: s}
	if p.pkg, err = conf.Check(path, s.fset, p.files, p.info); err != nil {
		return nil, err
	}
	s.pkgs[path] = p
	s.order = append(s.order, p)
	return p, nil
}

type deadDecl struct{ name, pos string }

// unreached marks everything the roots reach and returns the top-level
// declarations under internal/ that stay unmarked.
func (s *reachScan) unreached() []deadDecl {
	s.decls = map[types.Object][]scanDecl{}
	for _, p := range s.order {
		s.collect(p)
	}
	for _, r := range s.roots {
		s.visit(r)
	}
	std := s.stdInterfaces()
	errorIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for {
		s.drain()
		n := len(s.work)
		for obj := range s.decls {
			tn, ok := obj.(*types.TypeName)
			if !ok || !s.live[obj] {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			insts := []*types.Named{named}
			if named.TypeParams().Len() > 0 {
				insts = s.insts[tn]
			}
			for _, t := range insts {
				s.keepImplementing(t, std, errorIface)
			}
		}
		if len(s.work) == n {
			break
		}
	}

	var dead []deadDecl
	for obj := range s.decls {
		if s.live[obj] || !strings.HasPrefix(obj.Pkg().Path(), modulePath+"/internal/") {
			continue
		}
		name := obj.Pkg().Name() + "."
		if fn, ok := obj.(*types.Func); ok {
			if recv := receiverType(fn); recv != nil {
				name += recv.Name() + "."
			}
		}
		pos := s.fset.Position(obj.Pos())
		rel, _ := filepath.Rel(s.root, pos.Filename)
		dead = append(dead, deadDecl{name + obj.Name(), fmt.Sprintf("%s:%d", rel, pos.Line)})
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].name < dead[j].name })
	return dead
}

// keepImplementing marks the methods of t that implement a standard-library
// interface t satisfies, Unwrap on an error type, and the methods that
// implement a called module interface method.
func (s *reachScan) keepImplementing(t *types.Named, std []*types.Interface, errorIface *types.Interface) {
	ptr := types.NewPointer(t)
	mset := types.NewMethodSet(ptr)
	keep := func(name string) {
		if sel := mset.Lookup(t.Obj().Pkg(), name); sel != nil {
			s.mark(sel.Obj())
		}
	}
	for _, it := range std {
		if types.Implements(ptr, it) {
			for i := 0; i < it.NumMethods(); i++ {
				keep(it.Method(i).Name())
			}
		}
	}
	if types.Implements(ptr, errorIface) {
		keep("Unwrap")
	}
	for m := range s.called {
		if it, ok := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface); ok && types.Implements(ptr, it) {
			keep(m.Name())
		}
	}
}

// collect records a package's top-level declarations and its roots.
func (s *reachScan) collect(p *scanPkg) {
	add := func(id *ast.Ident, node ast.Node) {
		if id.Name == "_" {
			return
		}
		if obj := p.info.Defs[id]; obj != nil {
			s.decls[obj] = append(s.decls[obj], scanDecl{node, p.info})
		}
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.pkg.Name() == "main") {
					s.roots = append(s.roots, scanDecl{d, p.info})
					continue
				}
				add(d.Name, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, spec)
					case *ast.ValueSpec:
						if d.Tok == token.VAR {
							s.roots = append(s.roots, scanDecl{spec, p.info})
						}
						for _, id := range spec.Names {
							add(id, spec)
						}
					}
				}
			}
		}
	}
}

func (s *reachScan) mark(obj types.Object) {
	obj = origin(obj)
	if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && s.pkgs[fn.Pkg().Path()] != nil {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			s.called[fn] = true
		}
	}
	if _, ok := s.decls[obj]; !ok || s.live[obj] {
		return
	}
	s.live[obj] = true
	s.work = append(s.work, obj)
	// A constant in an iota run may name its type only on the run's
	// first line.
	if c, ok := obj.(*types.Const); ok {
		if n, ok := c.Type().(*types.Named); ok {
			s.mark(n.Obj())
		}
	}
}

func (s *reachScan) drain() {
	for len(s.work) > 0 {
		obj := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		for _, d := range s.decls[obj] {
			s.visit(d)
		}
	}
}

// visit marks every module declaration a node names and records the
// instantiations of generic module types it names.
func (s *reachScan) visit(d scanDecl) {
	ast.Inspect(d.node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := d.info.Uses[id]; obj != nil {
				s.mark(obj)
			}
			if t, ok := d.info.Instances[id].Type.(*types.Named); ok {
				s.instantiated(t)
			}
		}
		return true
	})
}

// instantiated records one instantiation of a generic module type.
func (s *reachScan) instantiated(t *types.Named) {
	tn := t.Origin().Obj()
	if _, ok := s.decls[tn]; !ok {
		return
	}
	for _, seen := range s.insts[tn] {
		if types.Identical(seen, t) {
			return
		}
	}
	s.insts[tn] = append(s.insts[tn], t)
}

// stdInterfaces returns error and every named interface with methods in
// the standard library packages the module imports, directly or not.
func (s *reachScan) stdInterfaces() []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		if _, mod := s.pkgs[pkg.Path()]; !mod {
			scope := pkg.Scope()
			for _, n := range scope.Names() {
				if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
						ifaces = append(ifaces, it)
					}
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range s.order {
		walk(p.pkg)
	}
	return ifaces
}

// origin maps an instantiated generic function, method or variable to the
// object its declaration defines.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// receiverType returns the declared type a method belongs to, or nil for a
// plain function.
func receiverType(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}
