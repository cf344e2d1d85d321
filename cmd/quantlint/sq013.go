// SQ013 — codec parity: a summary that accepts writes must be fully
// wired into the round-trip safety net.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// checkSQ013 computes, from the registry itself, the set of summaries
// owing a codec — registered aliases whose target type accepts writes
// (Update or Insert) or already has MarshalBinary — and checks each is
// fully wired:
//
//   - a writable target has MarshalBinary — without it, Snapshot and
//     Checkpoint fail on the summary at run time;
//   - the target also implements UnmarshalBinary — a one-way codec
//     makes checkpoints write-only;
//   - every root constructor New<X> returning the alias has a golden
//     fixture testdata/golden/<x>.bin — without it, format drift ships
//     silently;
//   - that constructor's key appears in the matrixSummaries table of
//     the root package's tests — the fuzz and crash-recovery matrices
//     must exercise every codec, and that table is their single source
//     of truth.
//
// A missing codec anchors at the target's write method, the rest at its
// MarshalBinary declaration: accepting writes is what creates the
// obligation, and the codec is what must then be wired. A read-only
// registration (an OLS snapshot, say) owes nothing. Computing the set
// from the registry (not a hand-kept list) means adding a writable
// summary without its codec and fixtures fails `make lint` on the spot.
func (l *linter) checkSQ013() {
	for _, p := range l.pkgs {
		if p.rel != "" {
			continue // the registry and its constructors live in the module root
		}
		matrix := matrixNames(p.dir)
		for _, f := range p.files {
			fname := l.fset.Position(f.Pos()).Filename
			if !strings.HasSuffix(fname, "quantiles.go") {
				continue
			}
			codec := map[string]aliasReg{}   // codec-bearing alias name -> registration
			anchor := map[string]token.Pos{} // alias name -> MarshalBinary position
			for _, a := range l.registryAliases(p, f) {
				methods := methodSet(a.target, a.typeName)
				if !methods["MarshalBinary"] {
					if methods["Update"] || methods["Insert"] {
						l.report(methodPos(a.target, a.typeName, "Update", "Insert"), "SQ013", fmt.Sprintf(
							"writable summary %s (= %s.%s) has no MarshalBinary: Snapshot and Checkpoint fail on it at run time; give it a codec, a golden fixture and a matrixSummaries entry", a.name, a.localPkg, a.typeName))
					}
					continue
				}
				pos := methodPos(a.target, a.typeName, "MarshalBinary")
				if pos == token.NoPos {
					pos = a.spec.Pos() // promoted method: anchor at the registration
				}
				codec[a.name] = a
				anchor[a.name] = pos
				if !methods["UnmarshalBinary"] {
					l.report(pos, "SQ013", fmt.Sprintf(
						"summary %s (= %s.%s) implements MarshalBinary but not UnmarshalBinary: a one-way codec makes checkpoints write-only", a.name, a.localPkg, a.typeName))
				}
			}
			if len(codec) == 0 {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || !strings.HasPrefix(fd.Name.Name, "New") ||
					fd.Type.Results == nil || len(fd.Type.Results.List) == 0 {
					continue
				}
				aliasName := receiverTypeName(fd.Type.Results.List[0].Type)
				a, ok := codec[aliasName]
				if !ok {
					continue
				}
				key := strings.ToLower(strings.TrimPrefix(fd.Name.Name, "New"))
				pos := anchor[aliasName]
				golden := filepath.Join(p.mod.dir, "testdata", "golden", key+".bin")
				if _, err := os.Stat(golden); err != nil {
					l.report(pos, "SQ013", fmt.Sprintf(
						"codec-bearing summary %s (constructor %s) has no golden fixture testdata/golden/%s.bin: encode one so format drift fails the round-trip tests", a.name, fd.Name.Name, key))
				}
				if !matrix[key] {
					l.report(pos, "SQ013", fmt.Sprintf(
						"codec-bearing summary %s (constructor %s) is missing from matrixSummaries: the fuzz and crash matrices must exercise every registered codec", a.name, fd.Name.Name))
				}
			}
		}
	}
}

// matrixNames parses the root package's test files for the
// matrixSummaries table and collects its name strings. Test files are
// outside the engine's package model (load skips them), so this uses a
// throwaway FileSet and tolerates absence: no tests simply means no
// names, and every codec constructor is reported unseeded.
func matrixNames(dir string) map[string]bool {
	set := map[string]bool{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return set
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for i, name := range vs.Names {
				if name.Name != "matrixSummaries" || i >= len(vs.Values) {
					continue
				}
				cl, ok := vs.Values[i].(*ast.CompositeLit)
				if !ok {
					continue
				}
				for _, el := range cl.Elts {
					entry, ok := el.(*ast.CompositeLit)
					if !ok {
						continue
					}
					for j, field := range entry.Elts {
						var v ast.Expr = field
						if kv, ok := field.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); !ok || id.Name != "name" {
								continue
							}
							v = kv.Value
						} else if j != 0 {
							continue // positional: the name is the first field
						}
						if lit, ok := v.(*ast.BasicLit); ok && lit.Kind == token.STRING {
							set[strings.Trim(lit.Value, `"`)] = true
						}
					}
				}
			}
			return true
		})
	}
	return set
}

// methodPos finds the declaration on typeName in the target package of
// the first of names it declares; the parity findings anchor there.
func methodPos(p *pkgInfo, typeName string, names ...string) token.Pos {
	for _, name := range names {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if ok && fd.Recv != nil && len(fd.Recv.List) == 1 &&
					fd.Name.Name == name &&
					receiverTypeName(fd.Recv.List[0].Type) == typeName {
					return fd.Pos()
				}
			}
		}
	}
	return token.NoPos
}
