package obs

import (
	"context"
	"log/slog"
	"time"
	"unicode/utf8"
)

// StatementTruncateLen bounds the statement text carried by a query-log
// record: long enough to identify any realistic statement, short enough
// that a pathological multi-megabyte query cannot bloat the audit log.
const StatementTruncateLen = 512

// QueryLog is the structured query/audit log: one slog record per
// evaluated statement, carrying the query ID (joinable against the
// Response.QueryID the client received and the EXPLAIN ANALYZE trailer),
// the session's remote address, the truncated statement, the attributed
// strategy, row count, wall time and error class. Records log at INFO;
// queries slower than the slow threshold — and failed queries — are
// promoted to WARN so a slow-query log is one level filter away.
//
// QueryLog is safe for concurrent use (slog handlers are).
type QueryLog struct {
	logger *slog.Logger
	slow   time.Duration
}

// NewQueryLog returns a query log writing through h. slow is the
// slow-query threshold; 0 disables WARN promotion by latency.
func NewQueryLog(h slog.Handler, slow time.Duration) *QueryLog {
	return &QueryLog{logger: slog.New(h), slow: slow}
}

// QueryRecord is one statement's audit entry.
type QueryRecord struct {
	// ID is the server-assigned per-process query ID, echoed to the
	// client in Response.QueryID.
	ID uint64
	// Session identifies the issuing session (remote address, or "repl").
	Session string
	// Statement is the input line; Record truncates it for the log.
	Statement string
	// Strategy is the attributed physical join strategy; Auto marks a
	// cost-based pick (vs a forced SET strategy).
	Strategy string
	Auto     bool
	Rows     int
	// Elapsed is execution wall time only; time spent waiting at the
	// admission gate is reported separately as QueueWait, so a statement
	// that queued behind a saturated server is not logged as a slow query
	// and blamed on the engine.
	Elapsed time.Duration
	// QueueWait is the time the statement spent waiting for an admission
	// slot (zero when admission control is off or the grant was
	// immediate). It is logged as its own attribute and never feeds the
	// slow-query promotion.
	QueueWait time.Duration
	// ErrClass classifies the failure: "" (success), "timeout",
	// "canceled", "usage", "panic", "overloaded" (rejected by admission
	// control before planning — retryable), "budget" (aborted by the
	// per-query memory budget) or "error". Err carries the message.
	ErrClass string
	Err      string
}

// Record writes one audit record.
func (l *QueryLog) Record(r QueryRecord) {
	if l == nil {
		return
	}
	slow := l.slow > 0 && r.Elapsed >= l.slow
	level := slog.LevelInfo
	// Usage mistakes are client noise, not service degradation; every
	// other failure class — and every slow query — is operator-relevant.
	if slow || (r.ErrClass != "" && r.ErrClass != "usage") {
		level = slog.LevelWarn
	}
	attrs := []slog.Attr{
		slog.Uint64("query_id", r.ID),
		slog.String("session", r.Session),
		slog.String("stmt", TruncateStatement(r.Statement)),
		slog.String("strategy", r.Strategy),
		slog.Bool("auto", r.Auto),
		slog.Int("rows", r.Rows),
		slog.Duration("elapsed", r.Elapsed),
	}
	if r.QueueWait > 0 {
		attrs = append(attrs, slog.Duration("queue_wait", r.QueueWait))
	}
	if slow {
		attrs = append(attrs, slog.Bool("slow", true))
	}
	if r.ErrClass != "" {
		attrs = append(attrs, slog.String("err_class", r.ErrClass), slog.String("err", r.Err))
	}
	l.logger.LogAttrs(context.Background(), level, "query", attrs...)
}

// TruncateStatement clips s to StatementTruncateLen bytes on a rune
// boundary, marking the cut with an ellipsis.
func TruncateStatement(s string) string {
	if len(s) <= StatementTruncateLen {
		return s
	}
	cut := StatementTruncateLen
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return s[:cut] + "…"
}
