package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// logRecords runs fn against a QueryLog writing JSON to a buffer and
// returns the decoded records.
func logRecords(t *testing.T, slow time.Duration, fn func(*QueryLog)) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	fn(NewQueryLog(slog.NewJSONHandler(&buf, nil), slow))
	var recs []map[string]any
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("bad log line: %v\n%s", err, buf.String())
		}
		recs = append(recs, m)
	}
	return recs
}

func TestQueryLogLevels(t *testing.T) {
	recs := logRecords(t, 100*time.Millisecond, func(l *QueryLog) {
		l.Record(QueryRecord{ID: 1, Session: "127.0.0.1:9", Statement: "SELECT 1", Strategy: "NJ", Rows: 1, Elapsed: time.Millisecond})
		l.Record(QueryRecord{ID: 2, Statement: "slow", Strategy: "TA", Elapsed: 200 * time.Millisecond})
		l.Record(QueryRecord{ID: 3, Statement: "boom", ErrClass: ErrClassError, Err: "boom", Elapsed: time.Millisecond})
		l.Record(QueryRecord{ID: 4, Statement: "\\nope", ErrClass: ErrClassUsage, Err: "unknown command", Elapsed: time.Millisecond})
		l.Record(QueryRecord{ID: 5, Statement: "late", ErrClass: ErrClassTimeout, Err: "context deadline exceeded", Elapsed: time.Millisecond})
	})
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	wantLevel := []string{"INFO", "WARN", "WARN", "INFO", "WARN"}
	for i, r := range recs {
		if r["level"] != wantLevel[i] {
			t.Errorf("record %d: level = %v, want %s (%v)", i+1, r["level"], wantLevel[i], r)
		}
		if r["query_id"] != float64(i+1) {
			t.Errorf("record %d: query_id = %v", i+1, r["query_id"])
		}
		if r["msg"] != "query" {
			t.Errorf("record %d: msg = %v", i+1, r["msg"])
		}
	}
	// The fast successful record carries the full attribute set.
	first := recs[0]
	for k, want := range map[string]any{
		"session": "127.0.0.1:9", "stmt": "SELECT 1", "strategy": "NJ",
		"auto": false, "rows": float64(1),
	} {
		if first[k] != want {
			t.Errorf("record 1: %s = %v, want %v", k, first[k], want)
		}
	}
	if _, ok := first["slow"]; ok {
		t.Error("fast query marked slow")
	}
	if _, ok := first["err_class"]; ok {
		t.Error("successful query carries err_class")
	}
	// The slow record is flagged, the error records classed.
	if recs[1]["slow"] != true {
		t.Errorf("slow query not flagged: %v", recs[1])
	}
	if recs[2]["err_class"] != "error" || recs[2]["err"] != "boom" {
		t.Errorf("error record missing class/message: %v", recs[2])
	}
}

func TestQueryLogSlowDisabled(t *testing.T) {
	recs := logRecords(t, 0, func(l *QueryLog) {
		l.Record(QueryRecord{ID: 1, Statement: "x", Elapsed: time.Hour})
	})
	if recs[0]["level"] != "INFO" {
		t.Errorf("slow=0 must never promote by latency: %v", recs[0])
	}
}

func TestQueryLogNilSafe(t *testing.T) {
	var l *QueryLog
	l.Record(QueryRecord{ID: 1}) // must not panic
}

func TestTruncateStatement(t *testing.T) {
	if got := TruncateStatement("short"); got != "short" {
		t.Errorf("short statement altered: %q", got)
	}
	long := strings.Repeat("x", StatementTruncateLen+100)
	got := TruncateStatement(long)
	if len(got) != StatementTruncateLen+len("…") {
		t.Errorf("truncated length = %d", len(got))
	}
	if !strings.HasSuffix(got, "…") {
		t.Errorf("no ellipsis: %q", got[len(got)-8:])
	}
	// Truncation never splits a rune: a multi-byte char straddling the
	// limit is dropped whole.
	runes := strings.Repeat("é", StatementTruncateLen) // 2 bytes each
	got = TruncateStatement(runes)
	if !strings.HasSuffix(got, "…") || strings.ContainsRune(got, '�') {
		t.Errorf("rune split in truncation: %q", got[len(got)-8:])
	}
	for _, r := range got {
		if r != 'é' && r != '…' {
			t.Errorf("mangled rune %q in truncation", r)
		}
	}
	// The record path truncates too.
	recs := logRecords(t, 0, func(l *QueryLog) {
		l.Record(QueryRecord{ID: 1, Statement: long})
	})
	if s, _ := recs[0]["stmt"].(string); len(s) > StatementTruncateLen+len("…") {
		t.Errorf("Record did not truncate: %d bytes", len(s))
	}
}
