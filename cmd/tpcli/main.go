// Command tpcli is the remote counterpart of cmd/tpquery: an interactive
// shell (or one-shot query runner) against a running tpserverd. Results
// render byte-identically to the in-process shell.
//
//	tpcli [-addr localhost:7654] [-connect-timeout 5s] [-timeout 0] [-v]
//	      [-e "SELECT ..."]
//
// With -e the single statement is executed and tpcli exits with a
// non-zero status on error; otherwise a REPL starts. The whole dialect of
// cmd/tpquery is available, plus the server builtin \metrics. SET
// statements — and PREPARE/EXECUTE prepared statements, each of which
// memoizes its planning for this session — affect only this session.
// With -v each response is followed by a stderr line carrying the
// server-assigned query ID, wall time and (for EXECUTE) whether the plan
// came from the statement's memo (plan=hit|miss) —
// the same ID the server's structured query log and the EXPLAIN ANALYZE
// trailer carry, so a slow statement seen here can be joined to its
// server-side records.
//
// The connection is established within -connect-timeout, retrying with
// jittered backoff (a server mid-restart is reachable as soon as it
// listens). A statement the server sheds under overload (error class
// "overloaded" — it never started executing, so the retry is safe) is
// resent with backoff: up to the -timeout deadline when one is set,
// otherwise a handful of attempts before giving up.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"tpjoin/internal/client"
	"tpjoin/internal/server"
)

// queryRetry sends line, resending statements the server shed under
// overload ("overloaded" responses never started executing, so the retry
// is safe) with jittered exponential backoff. With a deadline on ctx it
// keeps trying until the deadline; without one it gives up after a few
// attempts — an interactive user should see the overload, not hang on it.
func queryRetry(ctx context.Context, c *client.Client, line string) (*server.Response, error) {
	const maxAttempts = 5
	backoff := 100 * time.Millisecond
	_, bounded := ctx.Deadline()
	// One timer reused across attempts: time.After in a retry loop leaks a
	// live timer per iteration until it fires (Reset after a receive needs
	// no drain since Go 1.23).
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	for attempt := 1; ; attempt++ {
		resp, err := c.Query(ctx, line)
		if !client.IsOverloaded(err) {
			return resp, err
		}
		if !bounded && attempt >= maxAttempts {
			return resp, err
		}
		timer.Reset(backoff/2 + rand.N(backoff/2+1))
		select {
		case <-timer.C:
		case <-ctx.Done():
			return resp, err
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// verboseTrailer prints the -v line: the server-assigned query ID, the
// server-measured wall time and — for EXECUTE — whether the server-wide
// plan cache supplied the plan, on stderr so piped query output stays
// clean.
func verboseTrailer(on bool, resp *server.Response) {
	if !on || resp == nil || resp.QueryID == 0 {
		return
	}
	plan := ""
	if resp.PlanCache != "" {
		plan = " plan=" + resp.PlanCache
	}
	fmt.Fprintf(os.Stderr, "-- query_id=%d elapsed=%.3fms%s\n",
		resp.QueryID, float64(resp.ElapsedUS)/1e3, plan)
}

func main() {
	var (
		addr        = flag.String("addr", "localhost:7654", "tpserverd address")
		connTimeout = flag.Duration("connect-timeout", 5*time.Second, "connection-establishment budget (dial retries with backoff within it)")
		timeout     = flag.Duration("timeout", 0, "per-query client deadline (0 = none)")
		oneShot     = flag.String("e", "", "execute one statement and exit")
		verbose     = flag.Bool("v", false, "print the server-assigned query ID and wall time after each response (stderr)")
	)
	flag.Parse()

	dialCtx, dialCancel := context.WithTimeout(context.Background(), *connTimeout)
	c, err := client.DialContext(dialCtx, *addr)
	dialCancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpcli:", err)
		os.Exit(1)
	}
	defer c.Close()

	query := func(line string) (quit, failed bool) {
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		resp, err := queryRetry(ctx, c, line)
		if err != nil {
			if se, ok := err.(*client.ServerError); ok {
				if se.Usage {
					fmt.Println(se.Msg)
				} else {
					fmt.Println("error:", err)
				}
				// A failed statement still carried a query ID the server's
				// audit log recorded it under.
				verboseTrailer(*verbose, resp)
				return false, true
			}
			fmt.Fprintln(os.Stderr, "tpcli:", err)
			return true, true
		}
		client.Render(os.Stdout, resp)
		verboseTrailer(*verbose, resp)
		return resp.Kind == "quit", false
	}

	if *oneShot != "" {
		if _, failed := query(*oneShot); failed {
			os.Exit(1)
		}
		return
	}

	fmt.Printf("tpcli — connected to %s; \\help for the dialect, \\metrics for counters, \\q quits\n", *addr)
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("tp> ")
		if !in.Scan() {
			fmt.Println()
			return
		}
		quit, failed := query(in.Text())
		if quit {
			// A transport failure ends the REPL abnormally; \q ends it
			// cleanly.
			if failed {
				os.Exit(1)
			}
			return
		}
	}
}
