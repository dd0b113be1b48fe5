// Command tplint is the repo's custom static-analysis gate: a vet-style
// analyzer (internal/lint) that mechanically enforces the engine's
// cancellation-checkpoint contract for drain loops (ctxcheck).
//
// From the module root:
//
//	go run ./cmd/tplint ./...          # whole repo
//	go run ./cmd/tplint ./internal/core
//
// Usage: tplint [packages] (default ./...). It takes no flags.
//
// Exit status: 0 clean, 1 usage/internal error, 2 findings.
package main

import (
	"fmt"
	"os"
	"strings"

	"tpjoin/internal/lint"
)

func main() {
	for _, arg := range os.Args[1:] {
		if strings.HasPrefix(arg, "-") {
			fmt.Fprintln(os.Stderr, "usage: tplint [packages]")
			os.Exit(1)
		}
	}
	pkgs, err := lint.NewLoader().Load(os.Args[1:]...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tplint:", err)
		os.Exit(1)
	}
	diags := lint.RunAnalyzers(lint.Analyzers(), pkgs)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "tplint: %d finding(s)\n", len(diags))
		os.Exit(2)
	}
}
