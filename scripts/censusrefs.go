//go:build ignore

// censusrefs lists the exported top-level identifiers (funcs, methods,
// types, consts, vars) declared in non-test files under internal/ whose
// name appears in no other non-test Go file of the repository, the
// bench/ module included. Matching is by name, not by type, so it errs
// toward "referenced": a method shares its name with every other use of
// that name. Methods the standard library calls through an interface
// (String, Error, MarshalText, ...) are not listed.
//
// With -empty it instead lists the functions and methods of those files
// whose body has no statements, as "path:line:" in `go tool cover -func`
// form: cover reads such a body 0.0% even when it runs, so census.sh
// leaves them out of its list of functions at 0%.
//
//	go run scripts/censusrefs.go [-empty] [root]
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

var implicit = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true,
	"MarshalText": true, "UnmarshalText": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"Read": true, "Write": true, "Close": true, "Len": true, "Less": true, "Swap": true,
}

type decl struct {
	file       string
	line       int
	name, what string
}

func main() {
	empty := flag.Bool("empty", false, "list empty-bodied functions instead")
	flag.Parse()
	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}
	fset := token.NewFileSet()
	usedIn := map[string]map[string]bool{} // name -> files using it
	var decls []decl
	var emptyFuncs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata" || n == "scripts") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if usedIn[id.Name] == nil {
					usedIn[id.Name] = map[string]bool{}
				}
				usedIn[id.Name][rel] = true
			}
			return true
		})
		if strings.HasPrefix(filepath.ToSlash(rel), "internal/") {
			decls = append(decls, exported(fset, rel, f)...)
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && len(fd.Body.List) == 0 {
					emptyFuncs = append(emptyFuncs, fmt.Sprintf("%s:%d:", filepath.ToSlash(rel), fset.Position(fd.Pos()).Line))
				}
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "censusrefs:", err)
		os.Exit(1)
	}
	if *empty {
		for _, l := range emptyFuncs {
			fmt.Println(l)
		}
		return
	}
	var out []string
	for _, d := range decls {
		if len(usedIn[d.name]) == 1 && usedIn[d.name][d.file] {
			out = append(out, fmt.Sprintf("%s:%d\t%s %s", filepath.ToSlash(d.file), d.line, d.what, d.name))
		}
	}
	fmt.Printf("exported identifiers referenced only from their own file or tests: %d\n", len(out))
	for _, l := range out {
		fmt.Println(l)
	}
}

// exported lists a file's exported top-level declarations.
func exported(fset *token.FileSet, rel string, f *ast.File) []decl {
	var out []decl
	add := func(id *ast.Ident, what string) {
		if id.IsExported() {
			out = append(out, decl{rel, fset.Position(id.Pos()).Line, id.Name, what})
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name, "func")
			} else if !implicit[d.Name.Name] {
				add(d.Name, "method")
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, "type")
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n, strings.ToLower(d.Tok.String()))
					}
				}
			}
		}
	}
	return out
}
