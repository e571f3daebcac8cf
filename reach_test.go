//go:build reach

package ovsxdp

// The strict reachability check (ROADMAP item 5): every package-level func,
// method, const, var and type declared in a non-test file must be referenced
// by at least one identifier somewhere in the module — code or tests. It
// type-checks the whole module from source with the standard library alone
// (go/types plus the "source" importer; a few seconds), and runs as its own CI
// step behind the `reach` build tag:
//
//	go test -tags reach -run TestReachability .
//
// TestReachabilityLoose is the other half, as a ratchet: the same question
// with identifiers in _test.go files not counted as uses, so a symbol only
// its own unit test reaches is listed. Those are reachLooseAllowed, in two
// groups — paper features with a test but no exhibit, and test helpers — and
// the test fails on any symbol outside the list and on any entry that is
// reachable again or gone, so the list only shrinks. It asks the same of
// hooks, which are struct fields and so invisible to the symbol check: an
// exported func-typed field that no non-test code assigns (by =, by a
// composite-literal key or by taking its address) is a mechanism nothing
// plugs in, and must be on the shrink-only hookAllowed list.
//
// Not reported: anything under ovs/ (the public API is for callers outside
// the module) or benchmark/ (frozen by BENCHMARK.json); main and init; and a
// method that an interface declares or that satisfies an interface some
// package of the build declares (String and Error among them: a format verb
// reaches those without naming them). A use inside a symbol's own
// declaration does not count.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

const reachModule = "ovsxdp"

// reachLoader type-checks each module package once, test files included, so
// one types.Object stands for a symbol wherever it is used; everything
// outside the module comes from the source importer.
type reachLoader struct {
	fset *token.FileSet
	ctxt build.Context
	std  types.Importer
	pkgs map[string]*types.Package
	info *types.Info
	// files are the module's parsed files.
	files []*ast.File
	// xtests are the external test packages still to check: they may import
	// a package whose own check is what reached them, so they wait until
	// every package is loaded.
	xtests []func()
	errs   []error
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	if path != reachModule && !strings.HasPrefix(path, reachModule+"/") {
		return l.std.Import(path)
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir := "." + strings.TrimPrefix(path, reachModule)
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	pkg := l.check(path, dir, append(append([]string{}, bp.GoFiles...), bp.TestGoFiles...))
	l.pkgs[path] = pkg
	if len(bp.XTestGoFiles) > 0 {
		l.xtests = append(l.xtests, func() { l.check(path+"_test", dir, bp.XTestGoFiles) })
	}
	return pkg, nil
}

func (l *reachLoader) check(path, dir string, names []string) *types.Package {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			l.errs = append(l.errs, err)
			continue
		}
		files = append(files, f)
	}
	l.files = append(l.files, files...)
	conf := types.Config{Importer: l, Error: func(err error) { l.errs = append(l.errs, err) }}
	pkg, _ := conf.Check(path, l.fset, files, l.info) // errors arrive through conf.Error
	return pkg
}

// reachLoad type-checks the module once for both tests.
var reachLoad = sync.OnceValues(func() (*reachLoader, error) {
	fset := token.NewFileSet()
	ctxt := build.Default
	ctxt.CgoEnabled = false
	l := &reachLoader{
		fset: fset, ctxt: ctxt,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name[0] == '.' || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := ctxt.ImportDir(dir, 0); err != nil {
			return nil // no Go files here
		}
		_, err = l.Import(filepath.ToSlash(filepath.Join(reachModule, dir)))
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, check := range l.xtests {
		check()
	}
	return l, errors.Join(l.errs...)
})

// unreached lists the package-level symbols of non-test files that no
// identifier references, as "dir: kind Name" (a method as Recv.Name), sorted.
// With countTests false, identifiers in _test.go files are not references.
func unreached(t *testing.T, countTests bool) []string {
	l, err := reachLoad()
	if err != nil {
		t.Fatal(err)
	}
	fset := l.fset

	// Every interface of the build: the named ones of each package reached
	// and the literal ones written in the module.
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range l.pkgs {
		visit(p)
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, tv := range l.info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
			ifaces = append(ifaces, it)
		}
	}
	// satisfiesInterface also holds for a method an interface declares: the
	// declaration is the contract its implementations are kept for.
	satisfiesInterface := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if types.IsInterface(recv) {
			return true
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() && types.Implements(types.NewPointer(recv), it) {
					return true
				}
			}
		}
		return false
	}

	// Count references, skipping those inside the symbol's own declaration.
	used := map[types.Object]bool{}
	for _, f := range l.files {
		if !countTests && strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			var self types.Object
			if fd, ok := decl.(*ast.FuncDecl); ok {
				self = l.info.Defs[fd.Name]
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := l.info.Uses[id]; obj != nil && obj != self {
						if fn, ok := obj.(*types.Func); ok {
							obj = fn.Origin()
						}
						used[obj] = true
					}
				}
				return true
			})
		}
	}

	var dead []string
	for id, obj := range l.info.Defs {
		if obj == nil || obj.Pkg() == nil || id.Name == "_" || used[obj] {
			continue
		}
		pos := fset.Position(id.Pos())
		file := filepath.ToSlash(pos.Filename)
		if strings.HasSuffix(file, "_test.go") || strings.HasPrefix(file, "ovs/") || strings.HasPrefix(file, "benchmark/") {
			continue
		}
		if scope := obj.Parent(); scope != nil && scope != obj.Pkg().Scope() {
			continue // declared inside a function
		}
		kind, name := "", id.Name
		switch o := obj.(type) {
		case *types.Func:
			switch {
			case o.Type().(*types.Signature).Recv() == nil:
				kind = "func"
				if o.Name() == "main" || o.Name() == "init" {
					continue
				}
			case satisfiesInterface(o):
				continue
			default:
				kind = "method"
				recv := o.Type().(*types.Signature).Recv().Type()
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				name = recv.(*types.Named).Obj().Name() + "." + name
			}
		case *types.Const:
			kind = "const"
		case *types.Var:
			if o.IsField() {
				continue
			}
			kind = "var"
		case *types.TypeName:
			kind = "type"
		default:
			continue
		}
		dead = append(dead, fmt.Sprintf("%s: %s %s", path.Dir(file), kind, name))
	}
	sort.Strings(dead)
	return dead
}

// unassignedHooks lists the exported func-typed struct fields declared in
// non-test files outside ovs/ and benchmark/ that no non-test code assigns,
// as "dir: field Type.Name", sorted. Assigning means an assignment to the
// field, a key (or position) in a composite literal, or taking its address.
func unassignedHooks(t *testing.T) []string {
	l, err := reachLoad()
	if err != nil {
		t.Fatal(err)
	}
	fset := l.fset
	isTest := func(pos token.Pos) bool { return strings.HasSuffix(fset.Position(pos).Filename, "_test.go") }
	field := func(e ast.Expr) *types.Var {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if v, ok := l.info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
			return v.Origin()
		}
		return nil
	}

	assigned := map[*types.Var]bool{}
	for _, f := range l.files {
		if isTest(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if v := field(lhs); v != nil {
						assigned[v] = true
					}
				}
			case *ast.UnaryExpr:
				if v := field(n.X); n.Op == token.AND && v != nil {
					assigned[v] = true
				}
			case *ast.CompositeLit:
				st, _ := l.info.Types[n].Type.Underlying().(*types.Struct)
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							if v, ok := l.info.Uses[id].(*types.Var); ok && v.IsField() {
								assigned[v.Origin()] = true
							}
						}
					} else if st != nil && i < st.NumFields() {
						assigned[st.Field(i).Origin()] = true
					}
				}
			}
			return true
		})
	}

	// The struct each field belongs to, by the package-level types.
	owner := map[*types.Var]string{}
	for _, p := range l.pkgs {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					owner[st.Field(i)] = tn.Name()
				}
			}
		}
	}

	var hooks []string
	for id, obj := range l.info.Defs {
		v, ok := obj.(*types.Var)
		if !ok || !v.IsField() || !v.Exported() || assigned[v] || owner[v] == "" {
			continue
		}
		if _, ok := v.Type().Underlying().(*types.Signature); !ok {
			continue
		}
		file := filepath.ToSlash(fset.Position(id.Pos()).Filename)
		if isTest(id.Pos()) || strings.HasPrefix(file, "ovs/") || strings.HasPrefix(file, "benchmark/") {
			continue
		}
		hooks = append(hooks, fmt.Sprintf("%s: field %s.%s", path.Dir(file), owner[v], v.Name()))
	}
	sort.Strings(hooks)
	return hooks
}

func TestReachability(t *testing.T) {
	for _, d := range unreached(t, true) {
		t.Errorf("%s has no reference in code or tests", d)
	}
}

func TestReachabilityLoose(t *testing.T) {
	allowed := map[string]bool{}
	for _, a := range reachLooseAllowed {
		allowed[a] = true
	}
	for _, d := range unreached(t, false) {
		if !allowed[d] {
			t.Errorf("%s is referenced only by tests and is not in reachLooseAllowed: use it or delete it", d)
		}
		delete(allowed, d)
	}
	for a := range allowed {
		t.Errorf("reachLooseAllowed lists %q, which is reachable from code or gone: drop the entry", a)
	}

	hooks := map[string]bool{}
	for _, h := range hookAllowed {
		hooks[h] = true
	}
	for _, h := range unassignedHooks(t) {
		if !hooks[h] {
			t.Errorf("%s is a hook no non-test code plugs in and is not in hookAllowed: use it or delete it", h)
		}
		delete(hooks, h)
	}
	for h := range hooks {
		t.Errorf("hookAllowed lists %q, which non-test code assigns or is gone: drop the entry", h)
	}
}

// reachLooseAllowed: what only tests reach, sorted (PR 24) into the two kinds
// that may stay. Anything that is neither was deleted; a new symbol belongs
// in neither group until it has a reason to.
var reachLooseAllowed = []string{
	// A test helper: how tests of more than one behaviour observe state or
	// build input that non-test code has no reason to.
	"internal/afxdp: method Pool.Free",
	"internal/conntrack: func TupleOf",
	"internal/conntrack: method Table.Find",
	"internal/conntrack: method Table.ZoneCount",
	"internal/core: method PMD.Rxqs",
	"internal/faultinject: method Injector.Active",
	"internal/faultinject: method Injector.Trips",
	"internal/faultinject: method Injector.Windows",
	"internal/ofproto: method Match.Matches",
	"internal/ofproto: method Table.DistinctMasks",
	"internal/ovsdb: method Server.Rows",
	"internal/packet/hdr: const ARPRequest",
	"internal/packet/hdr: const ICMPEchoReply",
	"internal/packet/hdr: method Builder.ARPH",
	"internal/packet/hdr: method Builder.BadL4Checksum",
	"internal/packet/hdr: method Builder.ICMPH",
	"internal/packet/hdr: method Builder.IPv6H",
	"internal/packet/hdr: method Builder.Payload",
	"internal/packet/hdr: method Builder.VLAN",
	// Checksum oracles: the kernelsim and conntrack tests check with them
	// that a rewritten frame's checksums are right.
	"internal/packet/hdr: func VerifyIPv4Checksum",
	"internal/packet/hdr: func VerifyL4Checksum",
	"internal/packet: method Pool.Available", // the pool-conservation tests (dpif, vdev, packet)
	"internal/sim: method Engine.Pending",    // timer hygiene in sim, upcall and conntrack tests
}

// hookAllowed: the func-typed fields no non-test code assigns, which only
// shrinks.
var hookAllowed = []string{}
