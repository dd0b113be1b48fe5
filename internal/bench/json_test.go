package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestRunEnvironmentMetadata pins the environment metadata of a
// machine-readable benchmark run: BENCH_*.json files are compared across
// machines and PRs, so a run must always record the Go version, the CPU
// count and GOMAXPROCS (which bounds the PNJ worker pool). The JSON key
// names are part of the on-disk schema — renaming one silently breaks
// every tool that diffs the checked-in baselines.
func TestRunEnvironmentMetadata(t *testing.T) {
	run := NewRun("env-test")
	if run.GoVersion != runtime.Version() {
		t.Errorf("GoVersion = %q, want %q", run.GoVersion, runtime.Version())
	}
	if run.CPUs != runtime.NumCPU() {
		t.Errorf("CPUs = %d, want %d", run.CPUs, runtime.NumCPU())
	}
	if run.GoMaxProcs != runtime.GOMAXPROCS(0) {
		t.Errorf("GoMaxProcs = %d, want %d", run.GoMaxProcs, runtime.GOMAXPROCS(0))
	}
	if run.GOOS != runtime.GOOS || run.GOARCH != runtime.GOARCH {
		t.Errorf("GOOS/GOARCH = %s/%s, want %s/%s", run.GOOS, run.GOARCH, runtime.GOOS, runtime.GOARCH)
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, run); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"go_version"`, `"goos"`, `"goarch"`, `"cpus"`, `"gomaxprocs"`, `"label"`, `"schema"`,
	} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("serialized run lacks %s:\n%s", key, buf.String())
		}
	}

	// The file must round-trip without loss of the environment fields.
	var f File
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != 1 || !reflect.DeepEqual(f.Runs[0], run) {
		t.Errorf("round-trip mismatch: %+v vs %+v", f.Runs, run)
	}
}
