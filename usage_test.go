package ulpdp_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The usage scan keeps internal/ down to code that production runs.
// It parses every .go file of the module (benchmark/ included) and
// reports
//
//   - each exported top-level func, method, type, const or var in
//     internal/ that no non-test file references, and
//   - each exported field of an internal/ *Config struct that no
//     non-test file outside its package sets.
//
// The scan is name-based (go/ast only, no type checking), so it errs
// towards "used": a method counts as used when any non-test selector
// or interface names it. A finding passes only if
// testdata/usage_allowlist.txt gives it one of the reasons below.

// usageFinding names one flagged symbol: "internal/pkg.Name",
// "internal/pkg.Type.Method" or "internal/pkg.Config.Field".
type usageFinding string

type usageFile struct {
	dir  string // slash-separated, relative to the module root
	test bool
	src  []byte
	ast  *ast.File
}

type usageDecl struct {
	dir, name string // name is "Name" or "Recv.Method"
	recv      string
}

// stdMethods are method names that standard-library interfaces call
// (fmt, errors, encoding/json, sort, container/heap, io).
var stdMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true,
}

// loadUsageFiles parses every .go file under root, skipping testdata
// and hidden directories.
func loadUsageFiles(root string) ([]*usageFile, error) {
	var files []*usageFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		files = append(files, &usageFile{
			dir:  filepath.ToSlash(rel),
			test: strings.HasSuffix(name, "_test.go"),
			src:  src,
			ast:  f,
		})
		return nil
	})
	return files, err
}

// importDirs maps a file's local import names to module directories.
func importDirs(f *ast.File, module string) map[string]string {
	m := map[string]string{}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		var dir string
		switch {
		case path == module:
			dir = "."
		case strings.HasPrefix(path, module+"/"):
			dir = strings.TrimPrefix(path, module+"/")
		default:
			continue
		}
		name := dir[strings.LastIndex(dir, "/")+1:]
		if dir == "." {
			name = module
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		m[name] = dir
	}
	return m
}

func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// usageScan is the scan's result before the allowlist is applied.
type usageScan struct {
	findings []usageFinding
	// public holds "Name internal/pkg.Type" for each root name that
	// exposes an internal type: an alias of it, or a func whose
	// signature carries it.
	public map[string]bool
	files  []*usageFile
}

// scanUsage runs the scan over files of module.
func scanUsage(files []*usageFile, module string) *usageScan {
	s := &usageScan{public: map[string]bool{}, files: files}
	type key struct{ dir, name string }
	aliasOf := map[string]key{} // root alias name -> aliased internal type
	var decls []usageDecl
	configs := map[key]*ast.StructType{}
	inInternal := func(dir string) bool { return strings.HasPrefix(dir, "internal/") }

	// Declarations.
	for _, f := range files {
		if f.test {
			continue
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if f.dir == "." && d.Recv == nil && d.Name.IsExported() {
					imports := importDirs(f.ast, module)
					ast.Inspect(d.Type, func(n ast.Node) bool {
						if sel, ok := n.(*ast.SelectorExpr); ok {
							if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
								s.public[d.Name.Name+" "+imports[x.Name]+"."+sel.Sel.Name] = true
							}
						}
						return true
					})
				}
				if !inInternal(f.dir) || !d.Name.IsExported() {
					continue
				}
				r := recvName(d)
				name := d.Name.Name
				if r != "" {
					name = r + "." + name
				}
				decls = append(decls, usageDecl{dir: f.dir, name: name, recv: r})
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						if f.dir == "." && sp.Assign.IsValid() {
							if sel, ok := sp.Type.(*ast.SelectorExpr); ok {
								if x, ok := sel.X.(*ast.Ident); ok {
									if dir, ok := importDirs(f.ast, module)[x.Name]; ok {
										s.public[sp.Name.Name+" "+dir+"."+sel.Sel.Name] = true
										aliasOf[sp.Name.Name] = key{dir, sel.Sel.Name}
									}
								}
							}
						}
						if !inInternal(f.dir) || !sp.Name.IsExported() {
							continue
						}
						decls = append(decls, usageDecl{dir: f.dir, name: sp.Name.Name})
						if st, ok := sp.Type.(*ast.StructType); ok && strings.HasSuffix(sp.Name.Name, "Config") {
							configs[key{f.dir, sp.Name.Name}] = st
						}
					case *ast.ValueSpec:
						if !inInternal(f.dir) {
							continue
						}
						for _, n := range sp.Names {
							if n.IsExported() {
								decls = append(decls, usageDecl{dir: f.dir, name: n.Name})
							}
						}
					}
				}
			}
		}
	}

	// References from non-test files.
	topRefs := map[key]bool{}     // a package-level name, by package
	selNames := map[string]bool{} // any .Name selector
	ifaceMethods := map[string]bool{}
	exactSets := map[key]bool{}       // (dir, "Config.Field") set through a typed literal
	nameSets := map[string][]string{} // field name -> dirs of the files that set it untyped
	for _, f := range files {
		if f.test {
			continue
		}
		imports := importDirs(f.ast, module)
		// self is the declaration being walked: references to it from
		// inside itself (recursion, a type's own methods) do not count.
		var self key
		var walk func(n ast.Node) bool
		ref := func(k key) {
			if k != self {
				topRefs[k] = true
			}
		}
		typeKey := func(t ast.Expr) (key, bool) {
			switch t := t.(type) {
			case *ast.Ident:
				if k, ok := aliasOf[t.Name]; ok && f.dir == "." {
					return k, true
				}
				return key{f.dir, t.Name}, true
			case *ast.SelectorExpr:
				if x, ok := t.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						if k, ok := aliasOf[t.Sel.Name]; ok && dir == "." {
							return k, true
						}
						return key{dir, t.Sel.Name}, true
					}
				}
			}
			return key{}, false
		}
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						ref(key{dir, n.Sel.Name})
						return false
					}
				}
				selNames[n.Sel.Name] = true
				ast.Inspect(n.X, walk)
				return false
			case *ast.Ident:
				ref(key{f.dir, n.Name})
			case *ast.Field:
				// Field, parameter and result names declare; only types refer.
				ast.Inspect(n.Type, walk)
				return false
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					if _, ok := m.Type.(*ast.FuncType); ok {
						for _, name := range m.Names {
							ifaceMethods[name.Name] = true
						}
					}
				}
			case *ast.CompositeLit:
				k, typed := key{}, false
				if n.Type != nil {
					k, typed = typeKey(n.Type)
				}
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					id, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					if typed && k.dir != f.dir {
						exactSets[key{k.dir, k.name + "." + id.Name}] = true
					} else if n.Type == nil {
						nameSets[id.Name] = append(nameSets[id.Name], f.dir)
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					if sel, ok := l.(*ast.SelectorExpr); ok {
						nameSets[sel.Sel.Name] = append(nameSets[sel.Sel.Name], f.dir)
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := n.X.(*ast.SelectorExpr); ok {
					nameSets[sel.Sel.Name] = append(nameSets[sel.Sel.Name], f.dir)
				}
			}
			return true
		}
		for _, d := range f.ast.Decls {
			self = key{}
			switch d := d.(type) {
			case *ast.FuncDecl:
				if r := recvName(d); r != "" {
					self = key{f.dir, r}
				} else {
					self = key{f.dir, d.Name.Name}
				}
				if d.Type != nil {
					ast.Inspect(d.Type, walk)
				}
				if d.Body != nil {
					ast.Inspect(d.Body, walk)
				}
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						self = key{f.dir, sp.Name.Name}
						ast.Inspect(sp.Type, walk)
					case *ast.ValueSpec:
						if sp.Type != nil {
							ast.Inspect(sp.Type, walk)
						}
						for _, v := range sp.Values {
							ast.Inspect(v, walk)
						}
					}
				}
			}
		}
	}

	for _, d := range decls {
		var used bool
		if d.recv != "" {
			m := d.name[len(d.recv)+1:]
			used = selNames[m] || ifaceMethods[m] || stdMethods[m]
		} else {
			used = topRefs[key{d.dir, d.name}]
		}
		if !used {
			s.findings = append(s.findings, usageFinding(d.dir+"."+d.name))
		}
	}
	for k, st := range configs {
		for _, fl := range st.Fields.List {
			for _, n := range fl.Names {
				if !n.IsExported() {
					continue
				}
				set := exactSets[key{k.dir, k.name + "." + n.Name}]
				for _, dir := range nameSets[n.Name] {
					set = set || dir != k.dir
				}
				if !set {
					s.findings = append(s.findings, usageFinding(k.dir+"."+k.name+"."+n.Name))
				}
			}
		}
	}
	sort.Slice(s.findings, func(i, j int) bool { return s.findings[i] < s.findings[j] })
	return s
}

// usageReasons are the allowlist's reasons; each takes one argument.
//
//	test-api <dir>      test API for the tests of package <dir>
//	reference <Test>    a reference implementation that test <Test> compares against
//	alias <Name>        public through ulpdp.<Name>: an alias of the type,
//	                    or a func whose signature carries it
//	roadmap <N>         the named caller of open ROADMAP item N
var usageReasons = []string{"test-api", "reference", "alias", "roadmap"}

type usageAllow struct {
	reason, arg string
	line        int
}

func readUsageAllowlist(path string) (map[usageFinding]usageAllow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[usageFinding]usageAllow{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("%s:%d: want \"<symbol> <reason> <argument>\", got %q", path, line, text)
		}
		fd := usageFinding(fields[0])
		if _, dup := allow[fd]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, line, fd)
		}
		allow[fd] = usageAllow{reason: fields[1], arg: fields[2], line: line}
	}
	return allow, sc.Err()
}

// roadmapItem returns the text of open item n of ROADMAP.md: from its
// "- **n." bullet to the next top-level bullet or heading.
func roadmapItem(roadmap string, n string) string {
	start := strings.Index(roadmap, "\n- **"+n+". ")
	if start < 0 {
		return ""
	}
	rest := roadmap[start+1:]
	end := regexp.MustCompile(`\n(- \*\*|#)`).FindStringIndex(rest[1:])
	if end == nil {
		return rest
	}
	return rest[:end[0]+1]
}

// checkUsageReason reports why entry a does not hold for finding fd,
// or "" if it does.
func checkUsageReason(s *usageScan, fd usageFinding, a usageAllow, roadmap string) string {
	dir, name, _ := strings.Cut(string(fd), ".")
	typ, member, _ := strings.Cut(name, ".")
	leaf := name[strings.LastIndex(name, ".")+1:]
	word := regexp.MustCompile(`\b` + leaf + `\b`)
	switch a.reason {
	case "test-api":
		if a.arg == dir {
			return "a package's own test helpers belong in its export_test.go"
		}
		for _, f := range s.files {
			if f.test && f.dir == a.arg && word.Match(f.src) {
				return ""
			}
		}
		return "no test of " + a.arg + " names " + leaf
	case "reference":
		decl := regexp.MustCompile(`\nfunc ` + a.arg + `\(t \*testing\.T\)`)
		for _, f := range s.files {
			if f.test && decl.Match(f.src) && word.Match(f.src) {
				return ""
			}
		}
		return "no test file declares " + a.arg + " and names " + leaf
	case "alias":
		if member == "" {
			return "a type needs no alias reason; the alias refers to it"
		}
		if !s.public[a.arg+" "+dir+"."+typ] {
			return "ulpdp." + a.arg + " does not expose " + dir + "." + typ
		}
		return ""
	case "roadmap":
		item := roadmapItem(roadmap, a.arg)
		if item == "" {
			return "ROADMAP.md has no open item " + a.arg
		}
		if !word.MatchString(item) {
			return "ROADMAP.md item " + a.arg + " does not name " + leaf
		}
		return ""
	}
	return fmt.Sprintf("unknown reason %q (want one of %v)", a.reason, usageReasons)
}

func readModulePath(t *testing.T, root string) string {
	t.Helper()
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(gomod)
	if m == nil {
		t.Fatal("go.mod has no module line")
	}
	return string(m[1])
}

// TestEveryExportedNameHasProductionUser fails on every exported name
// in internal/ that no production file uses and every *Config field
// that no production file outside its package sets, unless
// testdata/usage_allowlist.txt gives it a reason that still holds. A
// listed name that production now uses fails too, so the list only
// shrinks. Delete a flagged name (and the tests that only test it);
// move a package's own test helper into its export_test.go; make an
// option that production never sets a constant.
func TestEveryExportedNameHasProductionUser(t *testing.T) {
	files, err := loadUsageFiles(".")
	if err != nil {
		t.Fatal(err)
	}
	s := scanUsage(files, readModulePath(t, "."))
	allow, err := readUsageAllowlist(filepath.Join("testdata", "usage_allowlist.txt"))
	if err != nil {
		t.Fatal(err)
	}
	roadmap, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	found := map[usageFinding]bool{}
	for _, fd := range s.findings {
		found[fd] = true
		a, ok := allow[fd]
		if !ok {
			t.Errorf("%s has no production user: delete it, or list it in testdata/usage_allowlist.txt with a reason", fd)
			continue
		}
		if why := checkUsageReason(s, fd, a, string(roadmap)); why != "" {
			t.Errorf("usage_allowlist.txt:%d: %s %s %s: %s", a.line, fd, a.reason, a.arg, why)
		}
	}
	for fd, a := range allow {
		if !found[fd] {
			t.Errorf("usage_allowlist.txt:%d: %s has a production user (or is gone): drop its entry", a.line, fd)
		}
	}
}

// TestUsageScanFixture runs the scan over a small module with one used
// and one unused func, a method that only an interface names, and a
// Config field that only a test sets.
func TestUsageScanFixture(t *testing.T) {
	root := t.TempDir()
	write := func(path, src string) {
		t.Helper()
		path = filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module fix\n\ngo 1.22\n")
	write("internal/p/p.go", `package p

type Config struct {
	Rate  int
	Depth int
}

type Shape interface{ Area() int }

type Square struct{}

func (Square) Area() int { return 1 }

func Used(c Config) Shape { return Square{} }

func Unused() {}
`)
	write("cmd/app/main.go", `package main

import "fix/internal/p"

func main() { _ = p.Used(p.Config{Rate: 1}) }
`)
	write("cmd/app/main_test.go", `package main

import "fix/internal/p"

var _ = p.Config{Depth: 2}
`)
	files, err := loadUsageFiles(root)
	if err != nil {
		t.Fatal(err)
	}
	got := scanUsage(files, readModulePath(t, root)).findings
	want := []usageFinding{"internal/p.Config.Depth", "internal/p.Unused"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan found %v, want %v", got, want)
	}
}
