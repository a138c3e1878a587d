package cityhunter_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptSurface lists the exported internal declarations that may stand
// without a non-test caller, each for a stated reason. A key is the
// package path below cityhunter/internal/, a dot and the declaration
// ("sim.Partitioned.LookaheadViolations"); a key ending in "*" covers
// every declaration it prefixes.
var keptSurface = []string{
	// The observability packages are to be rebuilt around one event
	// model; their surface is kept until that rebuild decides it.
	// Cross-package test fixtures: tests in campaign, scenario, sim, ap,
	// attack and obs/monitor read metrics from a registry's snapshot.
	"obs.Snapshot.Get", "obs.Snapshot.Value",
	// The paper's quoted figures, read by the claim registry to come.
	"paper.*",
	// The lookahead checker to come reads the partition violation count.
	"sim.Partitioned.LookaheadViolations",
	// The fuzzed 802.11 codec and the field values it encodes.
	"ieee80211.Marshal", "ieee80211.Frame.Marshal", "ieee80211.Unmarshal", "ieee80211.Err*",
	"ieee80211.Reason*", "ieee80211.Status*", "ieee80211.Cap*", "ieee80211.Auth*",
	// The reader of the database files cmd/citygen saves.
	"wigle.Load",
	// Fixtures and oracles that other packages' tests use.
	"ieee80211.RandomMAC", "ieee80211.Frame.IsBroadcastProbe",
	"core.Engine.SeededSize", "core.Engine.SentCount",
	"pnl.Model.AdoptionProbability",
	// The exposition checker the monitor, CLI and job-server tests lint
	// /metrics with.
	"promlint.Lint",
}

func isKept(key string) bool {
	for _, k := range keptSurface {
		if prefix, ok := strings.CutSuffix(k, "*"); ok && strings.HasPrefix(key, prefix) || key == k {
			return true
		}
	}
	return false
}

// listedPackage is the part of `go list -json` output the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// goList runs `go list -deps -export -json ./...` in dir and decodes its
// stream of package objects, dependencies before their importers.
func goList(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// TestInternalSurfaceHasCallers fails on every exported declaration under
// internal/ that no non-test file of the root module or the bench module
// references. A reference made only from declarations that are themselves
// unreferenced does not count, so a chain of dead code is listed whole.
// Methods that satisfy an interface are skipped (their callers may be
// dynamic), and so is keptSurface.
func TestInternalSurfaceHasCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks every package of both modules")
	}
	var listed []listedPackage
	seen := map[string]bool{}
	for _, dir := range []string{".", "bench"} {
		for _, p := range goList(t, dir) {
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				listed = append(listed, p)
			}
		}
	}
	exports := map[string]string{}
	for _, p := range listed {
		exports[p.ImportPath] = p.Export
	}
	fset := token.NewFileSet()
	stdImporter := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return stdImporter.Import(path)
	})

	// Type-check every module package from source, in go list's
	// dependency order. Each use of an object is recorded with the
	// objects its top-level declaration defines (none for uses outside
	// internal/ and in init or blank declarations, which are always live),
	// and every other internal top-level object is a candidate for dead
	// code.
	uses := map[types.Object][][]types.Object{}
	candidates := map[types.Object]bool{}
	var interfaces []*types.Interface
	for _, p := range listed {
		if p.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				interfaces = append(interfaces, it)
			}
		}
		internal := strings.HasPrefix(p.ImportPath, "cityhunter/internal/")
		record := func(node ast.Node, names ...*ast.Ident) {
			var from []types.Object
			for _, n := range names {
				if o := info.Defs[n]; internal && o != nil && o.Name() != "init" && o.Name() != "_" {
					from = append(from, o)
					candidates[o] = true
				}
			}
			ast.Inspect(node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
					o := origin(info.Uses[id])
					uses[o] = append(uses[o], from)
				}
				return true
			})
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					record(d, d.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							record(s, s.Name)
						case *ast.ValueSpec:
							record(s, s.Names...)
						}
					}
				}
			}
		}
	}

	// Every named interface visible from the module, plus error.
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					interfaces = append(interfaces, it)
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range checked {
		walk(p)
	}
	interfaces = append(interfaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for o := range candidates {
		if f, ok := o.(*types.Func); ok && satisfiesInterface(f, interfaces) || isKept(surfaceKey(o)) {
			delete(candidates, o)
		}
	}

	// Fixpoint: a candidate is dead when every use of it sits in a
	// declaration whose objects are all dead candidates (or itself).
	dead := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		for o := range candidates {
			if !dead[o] && !anyLiveUse(o, uses[o], dead) {
				dead[o] = true
				changed = true
			}
		}
	}
	var report []string
	for o := range dead {
		if o.Exported() {
			report = append(report, surfaceKey(o))
		}
	}
	sort.Strings(report)
	if len(report) > 0 {
		t.Errorf("%d exported declarations under internal/ have no non-test caller; delete them, or list them in keptSurface with the reason:\n\t%s",
			len(report), strings.Join(report, "\n\t"))
	}
}

// anyLiveUse reports whether one of o's uses sits in a declaration that
// defines a live object other than o.
func anyLiveUse(o types.Object, uses [][]types.Object, dead map[types.Object]bool) bool {
	for _, from := range uses {
		if len(from) == 0 {
			return true
		}
		for _, f := range from {
			if f != o && !dead[f] {
				return true
			}
		}
	}
	return false
}

// satisfiesInterface reports whether m's receiver type, or a pointer to
// it, implements one of interfaces that declares a method named m.
func satisfiesInterface(m *types.Func, interfaces []*types.Interface) bool {
	recv := m.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	for _, it := range interfaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, m.Name()); obj == nil {
			continue
		}
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// surfaceKey names o as keptSurface does: "sim.Engine.RunContext".
func surfaceKey(o types.Object) string {
	key := strings.TrimPrefix(o.Pkg().Path(), "cityhunter/internal/") + "."
	if f, ok := o.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil {
		t := f.Type().(*types.Signature).Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		key += t.(*types.Named).Obj().Name() + "."
	}
	return key + o.Name()
}

// origin maps a use of an instantiated generic function, method or
// field to its declaration.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
