// The rule registry and the syntactic helpers shared across rules.
// Each rule lives in its own sqNNN.go analyzer unit; they share the
// engine (lint.go), the lazy typed pass (typecheck.go), the
// intra-function CFG (cfg.go), the guarded-by annotation tables
// (guards.go) and the held-lock dataflow (locks.go).
package main

import (
	"go/ast"
	"go/token"
	"strings"
)

// ruleInfo is one registered analyzer: its id, a one-line contract for
// `-rules`, and the pass over the loaded packages.
type ruleInfo struct {
	id  string
	doc string
	run func(*linter)
}

// ruleTable is the ordered rule catalog. SQ000 (malformed //lint:ignore
// directive) is a pseudo-rule emitted by the engine itself while
// indexing directives, so it does not appear here.
var ruleTable = []ruleInfo{
	{"SQ001", "algorithm packages must not import math/rand or crypto/rand or call time.Now(): randomness flows through internal/xhash seeds, timing through the harness", (*linter).checkSQ001},
	{"SQ002", "no ==/!= between float64 expressions: compare with a tolerance or math.Float64bits", (*linter).checkSQ002},
	{"SQ003", "panic stays out of hot paths: New*/check* helpers only, plus the documented panic(ErrEmpty) contract", (*linter).checkSQ003},
	{"SQ004", "layering: internal/* never imports the harness, cmd/*, or the root package", (*linter).checkSQ004},
	{"SQ005", "every summary type registered in quantiles.go implements Invariants() error", (*linter).checkSQ005},
	{"SQ006", "decode paths in internal/* never panic and never let the encoded input size an allocation without a bounding comparison", (*linter).checkSQ006},
	{"SQ007", "ingestion hot paths (Update/Insert/Add and batch variants) must not allocate per item: no fmt, no make in a loop, no boxing, appends only onto preallocated slices", (*linter).checkSQ007},
	{"SQ008", "query hot paths (Quantile/Rank and batch variants) must not allocate per fraction: no fmt, no make or boxing inside a loop", (*linter).checkSQ008},
	{"SQ009", "memory layout: no []T over all-numeric tuple structs in the columnar packages, and every pool.Get pairs with a Put in the same function", (*linter).checkSQ009},
	{"SQ010", "guarded-by discipline: a read or write of a field annotated `// guarded by mu` must hold that mutex (Lock/RLock dominates the access); constructors are exempt", (*linter).checkSQ010},
	{"SQ011", "unlock-path soundness: every Lock/RLock is released on all CFG paths out of the function, via defer or a post-dominating Unlock", (*linter).checkSQ011},
	{"SQ012", "eps-budget propagation: a Merge implementation must derive the result eps via max/documented additive helpers, never copy one operand's eps or a fresh literal", (*linter).checkSQ012},
	{"SQ013", "codec parity: every registered summary that accepts writes (or has MarshalBinary) has MarshalBinary and UnmarshalBinary, a golden fixture under testdata/golden/, and a fuzz/crash-matrix seed", (*linter).checkSQ013},
	{"SQ014", "memory placement: structs holding mutexes or atomics stored by value in a slice in internal/sharded must carry a cache-line pad, and no package-level atomics on the write path", (*linter).checkSQ014},
	{"SQ015", "fan-out discipline: goroutine spawns in internal/sharded and internal/checkpoint bound loop fan-out by runtime.GOMAXPROCS, join every spawn on all paths out (a deferred Wait counts), and never discard a worker's error", (*linter).checkSQ015},
}

// ruleIDs reports whether id names a registered rule (or the engine's
// SQ000 directive pseudo-rule).
func knownRule(id string) bool {
	if id == "SQ000" {
		return true
	}
	for _, r := range ruleTable {
		if r.id == id {
			return true
		}
	}
	return false
}

// isInternalPkg reports whether p is an algorithm-side package, i.e.
// lives under internal/ of its module.
func isInternalPkg(p *pkgInfo) bool {
	return p.rel == "internal" || strings.HasPrefix(p.rel, "internal/")
}

// under reports whether rel is the package prefix or below it.
func under(rel, prefix string) bool {
	return rel == prefix || strings.HasPrefix(rel, prefix+"/")
}

func exempt(rel string, list []string) bool {
	for _, e := range list {
		if under(rel, e) {
			return true
		}
	}
	return false
}

// methodSet collects the names of methods declared on typeName (value
// or pointer receiver) across the package.
func methodSet(p *pkgInfo, typeName string) map[string]bool {
	set := map[string]bool{}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			if receiverTypeName(fd.Recv.List[0].Type) == typeName {
				set[fd.Name.Name] = true
			}
		}
	}
	return set
}

func receiverTypeName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return receiverTypeName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver List[K]
		return receiverTypeName(t.X)
	case *ast.IndexListExpr: // generic receiver List[K, V]
		return receiverTypeName(t.X)
	}
	return ""
}

// leafName resolves the identifier at the tail of a (possibly indexed,
// sliced, or dereferenced) selector chain: x, s.buf, pt.byShard[i] and
// (*buf) all resolve to their final field or variable name.
func leafName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return leafName(e.X)
	case *ast.SliceExpr:
		return leafName(e.X)
	case *ast.StarExpr:
		return leafName(e.X)
	case *ast.ParenExpr:
		return leafName(e.X)
	}
	return ""
}

// hasInvariantsMethod checks for the exact sanitizer signature
// `func (T) Invariants() error`.
func hasInvariantsMethod(p *pkgInfo, typeName string) bool {
	for _, f := range p.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 ||
				fd.Name.Name != "Invariants" ||
				receiverTypeName(fd.Recv.List[0].Type) != typeName {
				continue
			}
			if fd.Type.Params != nil && len(fd.Type.Params.List) > 0 {
				continue
			}
			res := fd.Type.Results
			if res == nil || len(res.List) != 1 {
				continue
			}
			if id, ok := res.List[0].Type.(*ast.Ident); ok && id.Name == "error" {
				return true
			}
		}
	}
	return false
}

// aliasReg is one `type Name = pkg.Type` registration in a module
// root's quantiles.go whose target was resolvable inside the module.
type aliasReg struct {
	name     string   // alias name in the root package
	localPkg string   // local import name of the target package
	typeName string   // type name inside the target package
	target   *pkgInfo // the target package, loaded on demand
	spec     *ast.TypeSpec
}

// registryAliases resolves the alias registrations of one root-package
// file into their internal target packages (SQ005 and SQ013 both read
// the registry this way).
func (l *linter) registryAliases(root *pkgInfo, f *ast.File) []aliasReg {
	imports := map[string]string{} // local name -> import path
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		local := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imports[local] = path
	}
	var regs []aliasReg
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok || !ts.Assign.IsValid() {
				continue // only aliases register implementations
			}
			sel, ok := ts.Type.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			pkgID, ok := sel.X.(*ast.Ident)
			if !ok {
				continue
			}
			ipath, ok := imports[pkgID.Name]
			if !ok || !strings.HasPrefix(ipath, root.mod.path+"/internal/") {
				continue
			}
			target, err := l.loadByImport(root.mod, ipath)
			if err != nil || target == nil {
				continue
			}
			regs = append(regs, aliasReg{
				name: ts.Name.Name, localPkg: pkgID.Name,
				typeName: sel.Sel.Name, target: target, spec: ts,
			})
		}
	}
	return regs
}
