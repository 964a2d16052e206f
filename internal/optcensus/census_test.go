// Package optcensus holds no code, only the guards that keep the API
// from regrowing. Both read the module and bench/ type-checked from
// source, once per run:
//
//   - TestEveryOptionHasASetter: every exported field of a struct named
//     Config, Params, Options or *Config under internal/ must have a
//     setter — a composite-literal key, an assignment or an `&x.F` — in
//     non-test code outside the struct's own defaulting, or be in
//     allowed with a reason. A field nothing sets is a constant that
//     costs a doc comment, a defaulting branch and a doubling of the
//     configurations a reader holds in mind.
//   - TestEveryExportHasAUser: every exported name under internal/ and
//     of the root facade must be named by non-test code of another
//     package, or be in allowedExports with a reason. A name only its
//     own package uses is unexported, where staticcheck's U1000 can see
//     it; a name nothing uses is deleted.
//
// TestCensusCatchesPlantedCases runs both over testdata/fixture, and
// TestDesignInventoryNamesEveryDirectory holds DESIGN.md's inventory to
// the package directories.
package optcensus

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"text/tabwriter"
)

// allowed lists the option fields that no non-test code sets and that
// stay anyway. Keys are "package.Struct.Field"; a prefix ending in
// ".*" allows a whole struct.
var allowed = map[string]string{
	"overload.Config.*":                       "out of scope: ntpnet/overload_test.go sets the levers to make the Degraded policy deterministic; cmd/ntpserver serves the defaults",
	"core.Params.DisableGating":               "paper ablation switch: isolates the filter's contribution (the tuner's replay and the ablation tests read it)",
	"core.Params.DisableFalseTickerRejection": "paper ablation switch: keeps every warm-up source (the tuner's replay and the ablation tests read it)",
	"discipline.Config.HoldoverDispPPM":       "test lever: the holdover tests raise it so the uncertainty bound's growth shows within a short run",
	"sntp.Config.RetryWait":                   "test lever: the retry tests over real sockets and fault transports shorten the pause to a millisecond",
	"population.Config.WarmupProbes":          "regression guard: TestWarmupMoreThanEightProbes raises it past eight to hold the probe scratch to the visible count",
	"ntplog.GenConfig.MaxRequestsPerClient":   "test lever: the generator tests lower it to keep their traces small",
	"ntplog.GenConfig.UnsyncFraction":         "test lever: the filtering test raises it to 0.5 so a heuristic that excluded nobody would show",
}

// before is the exported field count of each option struct before
// the options census; -v prints it beside today's.
var before = map[string]int{
	"clock.Config": 7, "core.Params": 30, "discipline.Config": 7, "experiments.Options": 3,
	"loadgen.Config": 12, "loadgen.NTSConfig": 4, "nitz.ManagerConfig": 3, "nitz.SourceConfig": 5,
	"ntpclient.Config": 12, "ntplog.AnalyzeConfig": 3, "ntplog.GenConfig": 5, "ntpnet.ReloadConfig": 5,
	"overload.Config": 9, "population.Config": 21, "sntp.Config": 5, "sources.Config": 9,
	"testbed.Config": 9, "tuner.Config": 6, "wireless.Params": 18,
}

// A unit is one type-checked package: a directory's package with its
// in-package tests, or its external _test package.
type unit struct {
	path  string // import path; an external test package's ends in _test
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

// A module is every package under a module root, nested modules
// included, type-checked from source over one file set.
type module struct {
	path  string // module path of the root
	fset  *token.FileSet
	units []unit
}

// at keys an object by its declaration: the importer type-checks a
// dependency apart from the pass that checks the same package with its
// tests, so the two see distinct objects at one position.
func (m *module) at(o types.Object) token.Position { return m.fset.Position(o.Pos()) }

func (m *module) isTest(p token.Pos) bool {
	return strings.HasSuffix(m.fset.File(p).Name(), "_test.go")
}

// load type-checks every package under root, whose module path is mod.
// Directories starting with a dot hold build output and those named
// testdata hold fixtures, not source.
func load(root, mod string) (*module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	m := &module{path: mod, fset: token.NewFileSet()}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return fs.SkipDir
		}
		// The files this platform builds, without the race tag.
		builds := func(fi fs.FileInfo) bool {
			ok, err := build.Default.MatchFile(dir, fi.Name())
			return ok && err == nil
		}
		pkgs, err := parser.ParseDir(m.fset, dir, builds, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		path := mod
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		for name, pkg := range pkgs {
			u := unit{path: path}
			if strings.HasSuffix(name, "_test") {
				u.path += "_test"
			}
			for _, f := range pkg.Files {
				u.files = append(u.files, f)
			}
			sort.Slice(u.files, func(i, j int) bool { return u.files[i].Pos() < u.files[j].Pos() })
			m.units = append(m.units, u)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The source importer finds a package with go/build, which asks
	// `go list` run in build.Default.Dir: run it in this module.
	defer func(dir string) { build.Default.Dir = dir }(build.Default.Dir)
	build.Default.Dir = root
	imp := importer.ForCompiler(m.fset, "source", nil)
	for i := range m.units {
		u := &m.units[i]
		u.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		if u.pkg, err = conf.Check(u.path, m.fset, u.files, u.info); err != nil {
			return nil, fmt.Errorf("type-check %s: %v", u.path, err)
		}
	}
	return m, nil
}

var tree struct {
	once sync.Once
	m    *module
	err  error
}

// loadTree type-checks this module and bench/ once for every census
// that reads them: the type-check is most of the package's run time.
func loadTree(t *testing.T) *module {
	t.Helper()
	if testing.Short() {
		t.Skip("the census type-checks the whole module from source; skipped under -short")
	}
	if raceEnabled {
		t.Skip("the census reads source, not memory; nothing for the race detector to see")
	}
	tree.once.Do(func() { tree.m, tree.err = load("../..", "mntp") })
	if tree.err != nil {
		t.Fatal(tree.err)
	}
	return tree.m
}

// scoped reports whether the census covers the package at path: the
// root facade and everything under internal/.
func (m *module) scoped(path string) bool {
	return path == m.path || strings.HasPrefix(path, m.path+"/internal/")
}

type field struct {
	name    string // package.Struct.Field
	owner   string // import path of the declaring package
	strct   string // package.Struct
	nonTest bool   // set by non-test code outside its own defaulting
	test    bool   // set by a _test.go file
}

func isOptionStruct(name string) bool {
	return name == "Params" || name == "Options" || strings.HasSuffix(name, "Config")
}

// optionFields returns every exported field of an option struct under
// internal/, and who sets it, keyed by declaration.
func optionFields(m *module) map[token.Position]*field {
	fields := map[token.Position]*field{}
	for _, u := range m.units {
		if !strings.HasPrefix(u.path, m.path+"/internal/") || strings.HasSuffix(u.path, "_test") {
			continue
		}
		scope := u.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !isOptionStruct(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for j := 0; j < st.NumFields(); j++ {
				if v := st.Field(j); v.Exported() {
					s := u.pkg.Name() + "." + name
					fields[m.at(v)] = &field{name: s + "." + v.Name(), owner: u.path, strct: s}
				}
			}
		}
	}
	for _, u := range m.units {
		for _, f := range u.files {
			isTest := m.isTest(f.Pos())
			mark := func(v *types.Var, defaulting bool) {
				fl := fields[m.at(v)]
				switch {
				case fl == nil:
				case isTest:
					fl.test = true
				case !defaulting || fl.owner != u.path:
					fl.nonTest = true
				}
			}
			walkSetters(f, u.info, mark)
		}
	}
	return fields
}

func TestEveryOptionHasASetter(t *testing.T) {
	fields := optionFields(loadTree(t))
	counts := map[string]int{}
	used := map[string]bool{}
	var unset, kept []string
	for _, fl := range fields {
		counts[fl.strct]++
		if fl.nonTest {
			continue
		}
		key := fl.name
		if _, ok := allowed[key]; !ok {
			key = fl.strct + ".*"
		}
		if _, ok := allowed[key]; ok {
			used[key] = true
			kept = append(kept, fl.name)
			continue
		}
		unset = append(unset, fmt.Sprintf("%s (set by a test: %v)", fl.name, fl.test))
	}
	sort.Strings(unset)
	sort.Strings(kept)

	if testing.Verbose() {
		printCounts("struct", "fields before the census", before, counts)
		fmt.Printf("allow-listed without a non-test setter (%d): %s\n", len(kept), strings.Join(kept, ", "))
	}
	if len(allowed) > 25 {
		t.Errorf("allow-list has %d entries, want at most 25: decide some", len(allowed))
	}
	for _, s := range unset {
		t.Errorf("%s has no setter outside tests and its own defaulting: make it a constant, or allow-list it with a reason", s)
	}
	for key, reason := range allowed {
		if !used[key] {
			t.Errorf("allow-list entry %s matches no unset field: delete it", key)
		}
		if reason == "" {
			t.Errorf("allow-list entry %s carries no reason", key)
		}
	}
}

// printCounts prints a table of counts by name, a baseline column
// beside today's, and their totals.
func printCounts(what, was string, base, now map[string]int) {
	names := make([]string, 0, len(base))
	for s := range base {
		names = append(names, s)
	}
	for s := range now {
		if _, ok := base[s]; !ok {
			names = append(names, s)
		}
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\t%s\tnow\n", what, was)
	b, n := 0, 0
	for _, s := range names {
		fmt.Fprintf(tw, "%s\t%d\t%d\n", s, base[s], now[s])
		b += base[s]
		n += now[s]
	}
	fmt.Fprintf(tw, "total\t%d\t%d\n", b, n)
	tw.Flush()
}

// walkSetters calls mark for every struct field that f sets: a key of
// a composite literal (every field of an unkeyed one), the target of
// an assignment or ++/--, and the operand of &. defaulting reports
// that the store is the struct's own zero-means-default branch: it
// sits in a method named applyDefaults or withDefaults, or inside an
// `if` whose condition reads the same field.
func walkSetters(f *ast.File, info *types.Info, mark func(v *types.Var, defaulting bool)) {
	var guards []ast.Expr // conditions of the enclosing ifs
	inDefaults := false
	fieldOf := func(e ast.Expr) *types.Var {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			return s.Obj().(*types.Var)
		}
		return nil
	}
	guarded := func(v *types.Var) bool {
		if inDefaults {
			return true
		}
		found := false
		for _, g := range guards {
			ast.Inspect(g, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok && fieldOf(e) == v {
					found = true
				}
				return !found
			})
		}
		return found
	}
	store := func(e ast.Expr) {
		if v := fieldOf(e); v != nil {
			mark(v, guarded(v))
		}
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			was := inDefaults
			inDefaults = n.Recv != nil && (n.Name.Name == "applyDefaults" || n.Name.Name == "withDefaults")
			if n.Body != nil {
				ast.Inspect(n.Body, visit)
			}
			inDefaults = was
			return false
		case *ast.IfStmt:
			if n.Init != nil {
				ast.Inspect(n.Init, visit)
			}
			ast.Inspect(n.Cond, visit)
			guards = append(guards, n.Cond)
			ast.Inspect(n.Body, visit)
			guards = guards[:len(guards)-1]
			if n.Else != nil {
				ast.Inspect(n.Else, visit)
			}
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				store(lhs)
			}
		case *ast.IncDecStmt:
			store(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				store(n.X)
			}
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok {
				return true
			}
			typ := tv.Type
			if p, ok := typ.Underlying().(*types.Pointer); ok {
				typ = p.Elem() // an elided &T{} in a []*T literal
			}
			st, ok := typ.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok {
							mark(v, false)
						}
					}
				} else if i < st.NumFields() {
					mark(st.Field(i), false)
				}
			}
		}
		return true
	}
	ast.Inspect(f, visit)
}
