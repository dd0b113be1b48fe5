package bench

import (
	"encoding/json"
	"io"
	"runtime"
)

// This file is the machine-readable side of the harness: the records
// Panel.Measure fills — ns/op, allocs/op and B/op per point — and their
// serialization as the BENCH_<n>.json files that track the repository's
// performance trajectory PR over PR.

// Record is one measured panel point. The AUTO series runs whatever
// physical strategy the cost-based picker (SET strategy = auto) chooses
// for the panel's workload; its Pick field names that strategy.
type Record struct {
	Figure      string  `json:"figure"`         // e.g. "5a"
	Dataset     string  `json:"dataset"`        // "webkit" or "meteo"
	Series      string  `json:"series"`         // "NJ", "TA", "NJ-WN", "NJ-WUON", "PNJ", "PTA", "AUTO"
	Pick        string  `json:"pick,omitempty"` // AUTO only: the picked strategy
	N           int     `json:"n"`              // input size (total tuples)
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Run is one measured sweep: a label (typically the PR or commit the
// numbers belong to), the environment, and the records. The environment
// fields (Go version, OS/arch, CPU count and GOMAXPROCS — the latter
// bounds the PNJ worker pool, so two runs with equal CPUs but different
// GOMAXPROCS are not comparable on Fig. 7) make BENCH_*.json runs
// comparable across machines; TestRunEnvironmentMetadata pins them.
type Run struct {
	Label      string   `json:"label"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	CPUs       int      `json:"cpus"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Records    []Record `json:"records"`
}

// File is the on-disk shape of a BENCH_<n>.json: one or more runs (e.g.
// the pre-PR baseline and the post-PR measurement) plus free-form notes
// interpreting them (methodology, deltas, caveats).
type File struct {
	Schema int    `json:"schema"`
	Runs   []Run  `json:"runs"`
	Notes  string `json:"notes,omitempty"`
}

// NewRun returns an empty run carrying the label and this process's
// environment; the caller appends the records of the panels it measures.
func NewRun(label string) Run {
	return Run{
		Label:      label,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
}

// WriteJSON serializes a File with the given runs, indented for diffable
// check-ins.
func WriteJSON(w io.Writer, runs ...Run) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(File{Schema: 1, Runs: runs})
}
