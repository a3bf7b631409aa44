package repro

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The simplicity rules, checked over the source of this module (bench/ is
// its own module and is not scanned: what only it uses counts as unused).
// Each rule lists its findings as stable strings — a declaration's name,
// or a call site as "file enclosing-function call" — and compares them, as
// a multiset, with its committed allow-list in testdata/simplicity. A
// finding missing from the list fails (fix the code; a new entry must be
// argued), and so does an entry that no longer matches a finding (delete
// it): a list can only shrink.
var simplicityRules = []struct {
	name string // allow-list testdata/simplicity/<name>.txt
	find func(m *module) []string
}{
	// Every exported identifier in internal/ has a user outside test
	// files: a reference from another file's code, or for a method a call
	// of that name anywhere (methods are matched by name, without types).
	{"exported", (*module).unusedExports},
	// The wall clock is read, and timers are made, only at the listed
	// sites of the control plane and the campaign package.
	{"clock", func(m *module) []string {
		return m.calls(func(f *srcFile) bool {
			return strings.HasPrefix(f.path, "internal/controlplane/") || strings.HasPrefix(f.path, "internal/campaign/")
		}, "time", "Now", "NewTimer")
	}},
	// Package log is used only by the commands.
	{"log", func(m *module) []string {
		return m.calls(func(f *srcFile) bool { return !strings.HasPrefix(f.path, "cmd/") }, "log")
	}},
	// PRNGs are built only at the listed sites.
	{"rand", func(m *module) []string {
		return m.calls(func(*srcFile) bool { return true }, "math/rand", "New")
	}},
	// Reports merge only in the engine: outside internal/engine no function
	// is named MergeReports and no Report or surface type has a Merge method.
	{"merge", (*module).reportMerges},
	// Error bars come from one estimator: outside internal/engine no
	// stats.Proportion or stats.Stratified is built, every caller asks the
	// engine for the estimate.
	{"estimator", (*module).estimatorLiterals},
	// Files are created, written, renamed and removed outside cmd/ only at
	// the listed sites: a new on-disk format is a new entry.
	{"files", func(m *module) []string {
		return m.calls(func(f *srcFile) bool { return !strings.HasPrefix(f.path, "cmd/") }, "os",
			"WriteFile", "Create", "CreateTemp", "OpenFile", "Rename", "Remove", "RemoveAll", "Mkdir", "MkdirAll")
	}},
}

func TestSimplicityRules(t *testing.T) {
	m := parseModule(t)
	for _, r := range simplicityRules {
		t.Run(r.name, func(t *testing.T) {
			list := filepath.Join("testdata", "simplicity", r.name+".txt")
			allowed := readAllowList(t, list)
			for _, f := range r.find(m) {
				if i := slices.Index(allowed, f); i >= 0 {
					allowed = slices.Delete(allowed, i, i+1)
					continue
				}
				t.Errorf("%s: not on %s (the list may only shrink)", f, list)
			}
			for _, a := range allowed {
				t.Errorf("%s: on %s but no longer found — delete the entry", a, list)
			}
		})
	}
}

// readAllowList returns the entries of an allow-list: one per line, blank
// lines and #-comments ignored.
func readAllowList(t *testing.T, name string) []string {
	t.Helper()
	f, err := os.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var entries []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			entries = append(entries, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return entries
}

type module struct {
	files []*srcFile
}

type srcFile struct {
	path    string // slash-separated, relative to the module root
	pkg     string // directory, slash-separated
	test    bool
	ast     *ast.File
	imports map[string]string // local name → import path
}

// parseModule parses every .go file of the module outside bench/ and
// testdata directories.
func parseModule(t *testing.T) *module {
	t.Helper()
	fset := token.NewFileSet()
	m := new(module)
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (p == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		af, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		f := &srcFile{path: filepath.ToSlash(p), test: strings.HasSuffix(p, "_test.go"), ast: af, imports: map[string]string{}}
		f.pkg = path.Dir(f.path)
		for _, im := range af.Imports {
			ip := strings.Trim(im.Path.Value, `"`)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			f.imports[name] = ip
		}
		m.files = append(m.files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// calls returns, for the non-test files in scope, every selector pkg.name
// on the import pkgPath — any name when names is empty — as "file func
// pkg.name", func being the enclosing top-level declaration.
func (m *module) calls(scope func(*srcFile) bool, pkgPath string, names ...string) []string {
	var out []string
	for _, f := range m.files {
		if f.test || !scope(f) {
			continue
		}
		for _, decl := range f.ast.Decls {
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				x, ok := sel.X.(*ast.Ident)
				if !ok || f.imports[x.Name] != pkgPath || (len(names) > 0 && !slices.Contains(names, sel.Sel.Name)) {
					return true
				}
				out = append(out, fmt.Sprintf("%s %s %s.%s", f.path, declName(decl), x.Name, sel.Sel.Name))
				return true
			})
		}
	}
	return out
}

// declName names a top-level declaration: Func, Type.Method, or the first
// name a var, const or type declaration binds.
func declName(d ast.Decl) string {
	if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
		return recvType(fd) + "." + fd.Name.Name
	}
	if ids := declIdents(d); len(ids) > 0 {
		return ids[0].Name
	}
	return "?"
}

// declIdents returns the names a top-level declaration binds.
func declIdents(d ast.Decl) []*ast.Ident {
	var ids []*ast.Ident
	switch d := d.(type) {
	case *ast.FuncDecl:
		ids = append(ids, d.Name)
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			}
		}
	}
	return ids
}

// recvType returns the name of a method's receiver type, pointer and type
// parameters stripped.
func recvType(d *ast.FuncDecl) string {
	e := d.Recv.List[0].Type
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// implicitMethods are called by the standard library through its
// interfaces, never by name in this module.
var implicitMethods = []string{"String", "Error", "Unwrap", "MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText", "ServeHTTP", "Len", "Less", "Swap"}

// unusedExports lists the exported top-level identifiers and methods
// declared in internal/ that nothing outside test files uses.
func (m *module) unusedExports() []string {
	used := map[string]bool{}   // "pkgdir.Name" referenced outside its declaration
	called := map[string]bool{} // selector names, for methods
	for _, f := range m.files {
		if f.test {
			continue
		}
		// Names that are not references: the top-level declarations'
		// own, and the field or method of a selector.
		skip := map[*ast.Ident]bool{}
		for _, decl := range f.ast.Decls {
			for _, id := range declIdents(decl) {
				skip[id] = true
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				called[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := f.imports[x.Name]; ok {
						used[strings.TrimPrefix(ip, "repro/")+"."+n.Sel.Name] = true
						return false
					}
				}
				skip[n.Sel] = true
			case *ast.Ident:
				if !skip[n] {
					used[f.pkg+"."+n.Name] = true
				}
			}
			return true
		})
	}

	var out []string
	for _, f := range m.files {
		if f.test || !strings.HasPrefix(f.path, "internal/") {
			continue
		}
		for _, decl := range f.ast.Decls {
			for _, id := range declIdents(decl) {
				switch fd, _ := decl.(*ast.FuncDecl); {
				case !id.IsExported():
				case fd != nil && fd.Recv != nil:
					if !called[id.Name] && !slices.Contains(implicitMethods, id.Name) {
						out = append(out, f.pkg+"."+recvType(fd)+"."+id.Name)
					}
				case !used[f.pkg+"."+id.Name]:
					out = append(out, f.pkg+"."+id.Name)
				}
			}
		}
	}
	return out
}

// reportMerges lists the report merges declared outside internal/engine:
// MergeReports functions and Merge methods of Report or surface types.
func (m *module) reportMerges() []string {
	var out []string
	for _, f := range m.files {
		if f.test || f.pkg == "internal/engine" {
			continue
		}
		for _, decl := range f.ast.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			switch {
			case d.Recv == nil && d.Name.Name == "MergeReports":
				out = append(out, f.pkg+"."+d.Name.Name)
			case d.Recv != nil && d.Name.Name == "Merge" && (recvType(d) == "Report" || recvType(d) == "surface"):
				out = append(out, f.pkg+"."+recvType(d)+".Merge")
			}
		}
	}
	return out
}

// estimatorLiterals lists, for the non-test files outside internal/engine,
// every composite literal of a stats type (a slice or array of one
// included) as "file enclosing-declaration stats.Type".
func (m *module) estimatorLiterals() []string {
	var out []string
	for _, f := range m.files {
		if f.test || f.pkg == "internal/engine" {
			continue
		}
		for _, decl := range f.ast.Decls {
			ast.Inspect(decl, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				typ := lit.Type
				if at, ok := typ.(*ast.ArrayType); ok {
					typ = at.Elt
				}
				if sel, ok := typ.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && f.imports[x.Name] == "repro/internal/stats" {
						out = append(out, fmt.Sprintf("%s %s %s.%s", f.path, declName(decl), x.Name, sel.Sel.Name))
					}
				}
				return true
			})
		}
	}
	return out
}
