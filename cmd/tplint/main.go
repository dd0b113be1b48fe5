// Command tplint is the repo's custom static-analysis gate: two
// vet-style analyzers (internal/lint) that mechanically enforce the
// engine's control-flow contracts — cancellation checkpoints in drain
// loops (ctxcheck) and pooled-buffer hygiene (poolhygiene).
//
// From the module root:
//
//	go run ./cmd/tplint ./...          # whole repo
//	go run ./cmd/tplint -analyzers ctxcheck,poolhygiene ./internal/core
//	go run ./cmd/tplint -list          # analyzer names and invariants
//
// Findings are suppressed line-by-line with a written reason:
//
//	//tplint:ignore <analyzer> <reason>
//
// Exit status: 0 clean, 1 usage/internal error, 2 findings.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tpjoin/internal/lint"
)

func main() {
	var (
		list  = flag.Bool("list", false, "list analyzers and exit")
		names = flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tplint [-analyzers a,b] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			doc := a.Doc
			if i := strings.IndexByte(doc, '\n'); i >= 0 {
				doc = doc[:i]
			}
			fmt.Printf("%-12s %s\n", a.Name, doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tplint:", err)
		os.Exit(1)
	}
	pkgs, err := lint.NewLoader().Load(flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tplint:", err)
		os.Exit(1)
	}
	diags := lint.RunAnalyzers(analyzers, pkgs)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "tplint: %d finding(s)\n", len(diags))
		os.Exit(2)
	}
}

func selectAnalyzers(names string) ([]*lint.Analyzer, error) {
	all := lint.Analyzers()
	if names == "" {
		return all, nil
	}
	byName := make(map[string]*lint.Analyzer)
	for _, a := range all {
		byName[a.Name] = a
	}
	var picked []*lint.Analyzer
	for _, name := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		picked = append(picked, a)
	}
	return picked, nil
}
