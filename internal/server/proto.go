package server

import (
	"fmt"
	"io"

	"tpjoin/internal/interval"
	"tpjoin/internal/obs"
	"tpjoin/internal/plan"
	"tpjoin/internal/shell"
	"tpjoin/internal/tp"
)

// The wire protocol is newline-delimited JSON over a stream transport:
// the client writes one Request per line, the server answers with exactly
// one Response per Request, in order. One connection is one session: it
// owns its SET settings — `SET strategy = auto|nj|ta|pnj|pta` selects the
// physical join (pnj and pta are the partitioned-parallel executors of
// the NJ pipeline and the TA baseline), `SET join_workers = <n>` their
// worker count (0 = one per CPU), `SET ta_nested_loop = on|off` the TA
// plan shape, `SET calibration = '<file>'` the cost-model constants the
// auto picker prices with — and shares the server's catalog with every
// other session. `PREPARE name AS SELECT ...` (with `?` or `$1`
// placeholders), `EXECUTE name [(v, ...)]` and `DEALLOCATE name` manage
// session-local prepared statements; the planning behind EXECUTE (stats
// profiling, cost-model strategy pick) is memoized in a server-wide plan
// cache shared by all sessions, invalidated when a referenced relation is
// replaced or its tp.Stamp moves — Response.PlanCache reports "hit" or
// "miss" per EXECUTE. The `\metrics` builtin reports per-strategy throughput
// (queries/rows/exec-seconds per NJ, TA, PNJ and PTA) plus the last
// query's wall time and row count, so strategy comparisons need no
// profiler.
// EXPLAIN ANALYZE responses carry the per-operator tree (rows, wall time,
// stage counters, abort reason) both rendered in Message and as the
// structured Plan field. Every evaluated statement additionally carries
// the server-assigned Response.QueryID, which joins the response to its
// structured query-log record and its EXPLAIN ANALYZE trailer.

// Request is one client → server message.
type Request struct {
	// ID is echoed back in the matching Response.
	ID uint64 `json:"id"`
	// Query is an input line in the shell dialect: a SQL statement or a
	// backslash command.
	Query string `json:"query"`
	// TimeoutMS overrides the server's default per-query timeout for this
	// request, in milliseconds. It is capped by the server's MaxTimeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Result kinds on the wire.
const (
	KindNone    = "none"
	KindQuit    = "quit"
	KindMessage = "message"
	KindRows    = "rows"
	KindExplain = "explain"
)

// Row is one result tuple: the fact attribute values (rendered as
// strings), the lineage formula (rendered), the validity interval
// endpoints and the tuple probability.
type Row struct {
	Fact    []string `json:"fact"`
	Lineage string   `json:"lineage,omitempty"`
	TStart  int64    `json:"tstart"`
	TEnd    int64    `json:"tend"`
	Prob    float64  `json:"p"`
}

// Response is one server → client message.
type Response struct {
	ID    uint64 `json:"id"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Usage marks Error as a usage line or unknown-command notice, which
	// the REPL renders verbatim (no "error:" prefix) — clients should do
	// the same.
	Usage bool `json:"usage,omitempty"`
	// ErrClass classifies Error so clients can react without parsing the
	// message (obs.ErrClassOverloaded is safe to retry with backoff;
	// tpcli does). Omitted on success.
	ErrClass obs.ErrClass `json:"err_class,omitzero"`
	Kind     string       `json:"kind"`
	Message  string       `json:"message,omitempty"`
	Columns  []string     `json:"columns,omitempty"`
	Rows     []Row        `json:"rows,omitempty"`
	// Plan carries the structured EXPLAIN [ANALYZE] tree for KindExplain
	// responses: per-operator rows, wall-time and stage counters under
	// ANALYZE, plus the abort reason when a timeout interrupted the run.
	// Message holds the same tree rendered as text.
	Plan     *plan.Tree `json:"plan,omitempty"`
	RowCount int        `json:"row_count"`
	// PlanCache reports how an EXECUTE (or EXPLAIN EXECUTE) statement got
	// its plan: "hit" — the server-wide plan cache supplied the memoized
	// statistics and strategy pick — or "miss" — planned fresh, entry
	// published for the next EXECUTE of the same shape (any session).
	// Empty for every other statement kind. tpcli prints it in verbose
	// mode.
	PlanCache string `json:"plan_cache,omitempty"`
	// QueryID is the server-assigned monotonic per-process query identity
	// for this statement (0 for server builtins like \metrics, which
	// evaluate no statement). The same ID appears on the statement's
	// structured query-log record and, for EXPLAIN ANALYZE, in the plan
	// trailer — the join key between a slow-query log line, its ANALYZE
	// tree and the latency histograms. tpcli prints it in verbose mode.
	QueryID   uint64 `json:"query_id,omitempty"`
	ElapsedUS int64  `json:"elapsed_us"`
}

// encodeResult converts a shell evaluation result into a Response body.
func encodeResult(res shell.Result) Response {
	resp := Response{OK: true, PlanCache: res.PlanCache}
	switch res.Kind {
	case shell.KindNone:
		resp.Kind = KindNone
	case shell.KindQuit:
		resp.Kind = KindQuit
	case shell.KindMessage:
		resp.Kind = KindMessage
		resp.Message = res.Text
	case shell.KindExplain:
		resp.Kind = KindExplain
		resp.Message = res.Text
		resp.Plan = res.Plan
	case shell.KindRows:
		resp.Kind = KindRows
		resp.Columns = append([]string(nil), res.Rel.Attrs...)
		resp.Rows = encodeRows(res.Rel)
		resp.RowCount = res.Rel.Len()
	}
	return resp
}

func encodeRows(rel *tp.Relation) []Row {
	rows := make([]Row, 0, rel.Len())
	for _, t := range rel.Tuples {
		fact := make([]string, len(t.Fact))
		for i, v := range t.Fact {
			fact[i] = v.String()
		}
		rows = append(rows, Row{
			Fact:    fact,
			Lineage: fmt.Sprintf("%s", t.Lineage),
			TStart:  t.T.Start,
			TEnd:    t.T.End,
			Prob:    t.Prob,
		})
	}
	return rows
}

// RenderResponse writes resp to w exactly as the in-process shell renders
// the same statement (shell.RenderResult): tabular rows for SELECT,
// verbatim text for messages and EXPLAIN. Remote and local output are
// byte-identical by construction — the same format verbs over the same
// values.
func RenderResponse(w io.Writer, resp *Response) {
	switch resp.Kind {
	case KindMessage, KindExplain:
		io.WriteString(w, resp.Message)
	case KindRows:
		shell.RenderHeader(w, resp.Columns)
		for _, r := range resp.Rows {
			shell.RenderRow(w, r.Fact, r.Lineage, interval.Interval{Start: r.TStart, End: r.TEnd}, r.Prob)
		}
		shell.RenderFooter(w, len(resp.Rows))
	}
}
