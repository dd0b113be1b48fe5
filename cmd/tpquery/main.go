// Command tpquery is an interactive SQL shell over the temporal-
// probabilistic engine. It starts with the paper's running example
// preloaded (relations a and b of Fig. 1a) and supports:
//
//	SELECT [DISTINCT] ... FROM r TP [LEFT|RIGHT|FULL|ANTI|INNER] JOIN s ON ...
//	       [WHERE ...] [ORDER BY ...] [LIMIT n]
//	SELECT ... FROM r TP UNION|INTERSECT|EXCEPT s
//	CREATE TABLE name AS SELECT ...
//	EXPLAIN [ANALYZE] SELECT ...
//	SET strategy = auto|nj|ta|pnj|pta
//	SET ta_nested_loop = on|off
//	\load <name> <file.csv>    load a relation from CSV (\N is NULL)
//	\save <name> <file.csv>    save a relation to CSV
//	\loadb <name> <file.tpr>   load the binary format (full lineage)
//	\saveb <name> <file.tpr>   save the binary format
//	\d                         list relations
//	\gen webkit|meteo <n>      generate a synthetic workload (relations r, s)
//	\drop <name>               remove a relation
//	\help                      show the dialect summary
//	\q                         quit
//
// EXPLAIN ANALYZE executes the query and annotates every operator with
// actual rows and wall time (inclusive, Open time broken out), plus
// strategy-level stage counters: window-pipeline windows/batches under
// NJ, alignment passes/fragments under TA, partitions/workers under PNJ.
// A query aborted by a timeout reports the abort reason on the
// interrupted node.
//
// WHERE clauses may reference the pseudo-columns P (tuple probability),
// Tstart and Tend besides the fact attributes. Fact attributes are text
// and compare to quoted strings; numbers compare only to P, Tstart and
// Tend. Example session:
//
//	tp> SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc;
//	tp> SET strategy = ta;
//	tp> EXPLAIN ANALYZE SELECT * FROM a TP ANTI JOIN b ON a.Loc = b.Loc;
//
// SET is session-scoped: it configures this shell's planner only. The
// same dialect (and the same dispatch core, internal/shell) is served to
// concurrent remote sessions by cmd/tpserverd, where each connection
// likewise owns its SET settings while sharing the catalog; cmd/tpcli is
// the matching remote REPL.
package main

import (
	"bufio"
	"fmt"
	"os"

	"tpjoin/internal/shell"
)

func main() {
	sh := shell.New(os.Stdout)
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Println("tpjoin interactive shell — temporal-probabilistic joins with negation")
	fmt.Println(`relations a, b preloaded (paper Fig. 1a); \help for the dialect, \q quits`)
	for {
		fmt.Print("tp> ")
		if !in.Scan() {
			fmt.Println()
			return
		}
		if sh.Execute(in.Text()) {
			return
		}
	}
}
