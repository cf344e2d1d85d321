// Command quantlint is the repo's static analyzer: fourteen numbered
// rules (SQ001–SQ014) encoding the invariants this codebase relies on
// but generic linters cannot know. SQ001–SQ009 and SQ014 are
// pure-syntax passes — seeded-randomness discipline, float comparison
// hygiene, panic-free hot paths, the internal/ layering, the
// Invariants() sanitizer contract for every registered summary, the
// decode-path hardening contract (no panics, no input-sized
// allocations without a guard) behind durable checkpoint recovery, the
// allocation discipline of the ingestion and query hot paths, the
// memory-layout discipline (columnar storage in the SoA summary
// packages, same-function sync.Pool Get/Put pairing), and the
// write-path memory-placement discipline (cache-line pads on hot
// structs sliced by value in internal/sharded, no package-level
// atomics). SQ010–SQ013 are type-aware: guarded-by
// lock discipline over `// guarded by mu` field annotations, unlock-
// path soundness over an intra-function CFG, ε-budget propagation
// through Merge implementations, and codec parity (writes imply a
// codec; marshal implies unmarshal + golden fixture + fuzz/crash-matrix
// seed) computed from the registry itself. Run `quantlint -rules` for the catalog.
//
// Usage:
//
//	quantlint [-json] [-strict] [-only SQ0NN[,SQ0NN...]] [-rules] [packages...]
//
// Packages follow the go tool's pattern shape (a directory, or dir/...
// for a recursive walk); the default is ./... from the current
// directory. Findings can be suppressed in place with a trailing or
// preceding comment naming one rule or a comma list:
//
//	//lint:ignore SQ003 reason the panic is part of the documented contract
//	//lint:ignore SQ002,SQ003 reason one waiver, two rules
//
// -strict additionally prints the suppressed findings, inventorying
// every ignore in the tree; the exit status still reflects only
// unsuppressed findings, so a tree whose every finding is waived stays
// green while the waivers stay visible. -only restricts the run to the
// named rules (their analyses alone execute). -json emits the findings
// as a JSON array. Exit status: 0 when clean, 1 on unsuppressed
// findings, 2 on usage or parse errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	strict := flag.Bool("strict", false, "also report findings suppressed by //lint:ignore")
	only := flag.String("only", "", "comma-separated rule ids to run (e.g. SQ010,SQ011); default all")
	listRules := flag.Bool("rules", false, "print the rule catalog and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: quantlint [-json] [-strict] [-only SQ0NN[,SQ0NN...]] [-rules] [packages...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listRules {
		for _, r := range ruleTable {
			fmt.Printf("%s  %s\n", r.id, r.doc)
		}
		return
	}

	var onlySet map[string]bool
	if *only != "" {
		onlySet = map[string]bool{}
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if !knownRule(id) {
				fmt.Fprintf(os.Stderr, "quantlint: unknown rule %q (see quantlint -rules)\n", id)
				os.Exit(2)
			}
			onlySet[id] = true
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	base, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "quantlint: %v\n", err)
		os.Exit(2)
	}
	all, err := lintOnly(base, patterns, onlySet)
	if err != nil {
		fmt.Fprintf(os.Stderr, "quantlint: %v\n", err)
		os.Exit(2)
	}

	visible := all[:0:0]
	active := 0
	for _, f := range all {
		if !f.Suppressed {
			active++
		}
		if !f.Suppressed || *strict {
			visible = append(visible, f)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if visible == nil {
			visible = []finding{}
		}
		if err := enc.Encode(visible); err != nil {
			fmt.Fprintf(os.Stderr, "quantlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range visible {
			fmt.Println(f)
		}
	}
	if active > 0 {
		os.Exit(1)
	}
}
