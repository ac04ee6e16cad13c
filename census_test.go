package specrecon_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// optionStructs are the structs a caller configures a launch, a check or
// a compile through.
var optionStructs = []string{
	"specrecon/internal/simt.Config",
	"specrecon/internal/diffcheck.Options",
	"specrecon/internal/core.Options",
}

// census type-checks the module's non-test code, a package at a time, and
// records every struct field it sees set: as a key of a literal of the
// struct or assigned through a selector.
type census struct {
	fset *token.FileSet
	dirs map[string][]*ast.File    // import path -> parsed non-test files
	pkgs map[string]*types.Package // checked so far
	std  types.Importer
	set  map[string]bool // "<import path>.<struct>.<field>"
}

// Import type-checks a package of this module from the parsed files (the
// compiler's export data has the standard library only).
func (c *census) Import(path string) (*types.Package, error) {
	files, ok := c.dirs[path]
	if !ok {
		return c.std.Import(path)
	}
	if pkg := c.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	pkg, err := (&types.Config{Importer: c}).Check(path, c.fset, files, info)
	if err != nil {
		return nil, err
	}
	c.pkgs[path] = pkg
	owner := func(typ types.Type) string {
		if p, ok := typ.Underlying().(*types.Pointer); ok {
			typ = p.Elem()
		}
		if n, ok := typ.(*types.Named); ok && n.Obj().Pkg() != nil {
			return n.Obj().Pkg().Path() + "." + n.Obj().Name()
		}
		return ""
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							c.set[owner(info.TypeOf(n))+"."+key.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && info.Selections[sel] != nil {
						c.set[owner(info.Selections[sel].Recv())+"."+sel.Sel.Name] = true
					}
				}
			}
			return true
		})
	}
	return pkg, nil
}

// TestEveryOptionHasASetter is the census of options: every exported
// field of simt.Config, diffcheck.Options and core.Options is set
// somewhere in the module's non-test code — the binaries, the harness,
// the campaigns, the examples or bench/. A field only tests set is an
// option nobody has: it goes, with the code it keeps alive (the per-SM
// sink hooks, the cycle budget and the memory-size override went in PR 24).
func TestEveryOptionHasASetter(t *testing.T) {
	c := &census{
		fset: token.NewFileSet(), std: importer.Default(),
		dirs: map[string][]*ast.File{}, pkgs: map[string]*types.Package{}, set: map[string]bool{},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != "." || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(c.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Join("specrecon", filepath.Dir(path)))
		c.dirs[pkg] = append(c.dirs[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range c.dirs {
		if _, err := c.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range optionStructs {
		path, typ, _ := strings.Cut(name, ".")
		st := c.pkgs[path].Scope().Lookup(typ).Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() && !c.set[name+"."+f.Name()] {
				t.Errorf("no non-test code sets %s.%s", name, f.Name())
			}
		}
	}
}
