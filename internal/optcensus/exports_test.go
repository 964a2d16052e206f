package optcensus

import (
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// allowedExports lists the exported names that no non-test code of
// another package names and that stay exported anyway. Keys are
// "package.Name" or "package.Type.Method".
var allowedExports = map[string]string{
	"ntpnet.ReusePortAvailable":   "the root package's shard-capacity benchmark skips Shards2 where the platform cannot bind a REUSEPORT group",
	"ntske.Transport.CookieCount": "ntpnet's NTS end-to-end test reads the jar level to prove cookie re-supply over real sockets",
	"wireless.Channel.StateNow":   "the wireless and testbed tests assert on the hidden channel state, free of the jitter a hint reading adds",
	"stats.Variance":              "two-pass reference the tests hold the Welford accumulator (Online) to",
}

// exportsBefore is the exported-name count of each package the census
// covers before it; -v prints it beside today's.
var exportsBefore = map[string]int{
	"internal/cellular": 6, "internal/chaos": 30, "internal/clock": 19, "internal/core": 53,
	"internal/discipline": 29, "internal/driftfile": 2, "internal/energy": 17, "internal/exchange": 5,
	"internal/experiments": 25, "internal/hints": 13, "internal/hist": 12, "internal/ipasn": 16,
	"internal/loadgen": 17, "internal/netsim": 46, "internal/nitz": 10, "internal/ntpclient": 16,
	"internal/ntplog": 23, "internal/ntpnet": 30, "internal/ntppkt": 55, "internal/ntptime": 13,
	"internal/nts": 43, "internal/ntske": 17, "internal/overload": 21, "internal/pcap": 13,
	"internal/population": 37, "internal/report": 12, "internal/sntp": 10, "internal/sources": 26,
	"internal/stats": 27, "internal/sysclock": 12, "internal/testbed": 18, "internal/trend": 45,
	"internal/tuner": 13, "internal/wireless": 11, "mntp": 71,
}

// An export is one exported name of a package the census covers, and
// who names it.
type export struct {
	name    string // package.Name or package.Type.Method
	owner   string // import path of the declaring package
	obj     types.Object
	user    bool   // non-test code of another package names it
	test    bool   // a test of another package names it
	inPkg   bool   // non-test code of its own package names it
	implied string // why it is used where no identifier names it
	walked  bool   // its signature has been followed
}

// Verdicts of the export census.
const (
	kept       = "kept"
	testOnly   = "named outside its package only by tests: unexport it, or allow-list it with a reason"
	pkgOnly    = "used only in its own package: unexport it"
	noNonTests = "has no user outside tests: delete it"

	allowListed = "allow-listed"
)

func (e *export) verdict() string {
	switch {
	case e.user || e.implied != "":
		return kept
	case e.test:
		return testOnly
	case e.inPkg:
		return pkgOnly
	}
	return noNonTests
}

// exportCensus returns every exported func, type, const, var and
// method of the root package and the packages under internal/, keyed
// by declaration, with who uses it. A use is an identifier that names
// it; a method that makes a named type satisfy an interface is used
// through the interface, and a type that the signature or exported
// fields of a kept name mention is used through that name.
func exportCensus(m *module, allow map[string]string) map[token.Position]*export {
	exports := map[token.Position]*export{}
	add := func(u unit, name string, o types.Object) {
		if o.Exported() && !m.isTest(o.Pos()) {
			exports[m.at(o)] = &export{name: name, owner: u.path, obj: o}
		}
	}
	for _, u := range m.units {
		if !m.scoped(u.path) {
			continue
		}
		scope := u.pkg.Scope()
		for _, name := range scope.Names() {
			o := scope.Lookup(name)
			add(u, u.pkg.Name()+"."+name, o)
			if tn, ok := o.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < n.NumMethods(); i++ {
						add(u, u.pkg.Name()+"."+name+"."+n.Method(i).Name(), n.Method(i))
					}
				}
			}
		}
	}
	lookup := func(o types.Object) *export {
		if o == nil || !o.Exported() || o.Pkg() == nil || !m.scoped(o.Pkg().Path()) {
			return nil
		}
		return exports[m.at(o)]
	}

	for _, u := range m.units {
		owner := strings.TrimSuffix(u.path, "_test")
		for id, o := range u.info.Uses {
			e := lookup(o)
			switch {
			case e == nil:
			case m.isTest(id.Pos()):
				e.test = e.test || e.owner != owner
			case e.owner != owner:
				e.user = true
			default:
				e.inPkg = true
			}
		}
	}

	markInterfaceMethods(m, lookup)

	// Follow each kept name's signature until nothing new is reached;
	// then again from the allow-listed names that are still unused.
	follow := func() {
		for changed := true; changed; {
			changed = false
			for _, e := range exports {
				if e.walked || e.verdict() != kept {
					continue
				}
				e.walked = true
				for _, tn := range signatureTypes(e.obj) {
					if d := lookup(tn); d != nil && d.verdict() != kept {
						d.implied = "named by " + e.name
						changed = true
					}
				}
			}
		}
	}
	follow()
	for _, e := range exports {
		if _, ok := allow[e.name]; ok && e.verdict() != kept {
			e.implied = allowListed
		}
	}
	follow()
	return exports
}

// markInterfaceMethods marks the methods through which a named type of
// the census satisfies an interface that some package of the build
// declares or spells: such a method is called where no identifier
// names it, as error's Error is by fmt.
func markInterfaceMethods(m *module, lookup func(types.Object) *export) {
	// Every package of the build: the units' own and, through their
	// imports, the importer's, which is the copy other packages see.
	seen := map[*types.Package]bool{}
	var pkgs []*types.Package
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if !seen[p] {
			seen[p] = true
			pkgs = append(pkgs, p)
			for _, q := range p.Imports() {
				visit(q)
			}
		}
	}
	for _, u := range m.units {
		visit(u.pkg)
	}

	byMethod := map[string][]*types.Interface{} // interfaces by their first method's name
	ifaceSeen := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 || !it.IsMethodSet() || ifaceSeen[it] {
			return
		}
		ifaceSeen[it] = true
		byMethod[it.Method(0).Name()] = append(byMethod[it.Method(0).Name()], it)
	}
	var named []*types.Named
	for _, p := range pkgs {
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 {
				continue
			}
			addIface(n)
			if m.scoped(p.Path()) {
				named = append(named, n)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, u := range m.units {
		for _, tv := range u.info.Types {
			if tv.Type != nil {
				addIface(tv.Type) // interface literals
			}
		}
	}

	for _, n := range named {
		if types.IsInterface(n) {
			continue
		}
		ptr := types.NewPointer(n)
		ms := types.NewMethodSet(ptr)
		for i := 0; i < ms.Len(); i++ {
			for _, it := range byMethod[ms.At(i).Obj().Name()] {
				if !types.Implements(ptr, it) {
					continue
				}
				for j := 0; j < it.NumMethods(); j++ {
					im := it.Method(j)
					sel := ms.Lookup(im.Pkg(), im.Name())
					if sel == nil {
						continue
					}
					if e := lookup(sel.Obj()); e != nil && e.implied == "" {
						e.implied = "satisfies an interface"
					}
				}
			}
		}
	}
}

// signatureTypes returns the named types that o's signature, type or
// exported fields mention.
func signatureTypes(o types.Object) []*types.TypeName {
	var out []*types.TypeName
	var walk func(t types.Type)
	walk = func(t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			out = append(out, t.Obj())
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
		case *types.Alias:
			out = append(out, t.Obj())
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		}
	}
	switch o := o.(type) {
	case *types.TypeName:
		if o.IsAlias() {
			walk(types.Unalias(o.Type()))
		} else {
			walk(o.Type().Underlying())
		}
	case *types.Func:
		sig := o.Type().(*types.Signature)
		if sig.Recv() != nil {
			walk(sig.Recv().Type())
		}
		walk(sig)
	default:
		walk(o.Type())
	}
	return out
}

func TestEveryExportHasAUser(t *testing.T) {
	m := loadTree(t)
	exports := exportCensus(m, allowedExports)
	counts := map[string]int{}
	matched := map[string]bool{}
	var failures []string
	for _, e := range exports {
		counts[strings.TrimPrefix(e.owner, m.path+"/")]++
		if e.implied == allowListed {
			matched[e.name] = true
		}
		if v := e.verdict(); v != kept {
			failures = append(failures, e.name+" "+v)
		}
	}
	sort.Strings(failures)
	if testing.Verbose() {
		printCounts("package", "exports before the census", exportsBefore, counts)
	}
	if len(allowedExports) > 25 {
		t.Errorf("allow-list has %d entries, want at most 25: decide some", len(allowedExports))
	}
	for _, s := range failures {
		t.Error(s)
	}
	for key, reason := range allowedExports {
		if !matched[key] {
			t.Errorf("allow-list entry %s names no export that lacks a user: delete it", key)
		}
		if reason == "" {
			t.Errorf("allow-list entry %s carries no reason", key)
		}
	}
}
