package filters_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoPackageLevelMutableState keeps filter instances owned by the
// proxy that attached them: a package-level map, slice, pointer or
// channel in this package would be shared by every proxy and every
// data-plane shard in the process. Compile-time interface assertions
// (var _ I = ...) and error sentinels remain allowed.
func TestNoPackageLevelMutableState(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, id := range vs.Names {
					if id.Name == "_" {
						continue
					}
					var val ast.Expr
					if i < len(vs.Values) {
						val = vs.Values[i]
					}
					if mutableType(vs.Type) || mutableValue(val) {
						t.Errorf("%s: package-level mutable var %s", fset.Position(id.Pos()), id.Name)
					}
				}
			}
		}
	}
}

// mutableType reports whether a declared type is a map, slice, pointer
// or channel.
func mutableType(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.MapType, *ast.StarExpr, *ast.ChanType:
		return true
	case *ast.ArrayType:
		return e.Len == nil
	}
	return false
}

// mutableValue reports whether an initializer evidently yields a map,
// slice, pointer or channel: a map or slice literal, an address-of, or
// make/new.
func mutableValue(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return mutableType(e.Type)
	case *ast.UnaryExpr:
		return e.Op == token.AND
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok {
			return id.Name == "make" || id.Name == "new"
		}
	}
	return false
}
