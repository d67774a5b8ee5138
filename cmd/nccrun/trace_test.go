package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ncc/internal/obs"
)

const traceSweepSpec = `{
	"algo": "mis",
	"graph": {"family": "kforest", "params": {"n": 16, "k": 2}, "seed": 1},
	"model": {"capfactor": 4, "seed": 1},
	"sweep": {"seeds": [1, 2]}
}`

func writeSpec(t *testing.T, spec string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceFlag covers the local -trace path: the file validates, covers every
// sweep run, and the remote fetch of the same scenario is byte-identical.
func TestTraceFlag(t *testing.T) {
	spec := writeSpec(t, traceSweepSpec)
	local := filepath.Join(t.TempDir(), "local.ndjson")
	code, out, errw := runCapture(t, "-scenario", spec, "-trace", local)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	if !strings.Contains(out, "trace:") || !strings.Contains(out, "sha256:") {
		t.Errorf("output missing trace summary:\n%s", out)
	}
	data, err := os.ReadFile(local)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Validate(data); err != nil {
		t.Fatalf("local trace invalid: %v", err)
	}
	tr, err := obs.Parse(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Runs) != 2 {
		t.Fatalf("trace covers %d runs, want 2", len(tr.Runs))
	}

	ts := startDaemon(t)
	remote := filepath.Join(t.TempDir(), "remote.ndjson")
	code, _, errw = runCapture(t, "-scenario", spec, "-remote", ts.URL, "-trace", remote)
	if code != 0 {
		t.Fatalf("remote exit %d, stderr: %s", code, errw)
	}
	got, err := os.ReadFile(remote)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("remote trace differs from local:\nlocal %d bytes, remote %d bytes", len(data), len(got))
	}
}

// TestTraceTimingFlag pins that -trace-timing interleaves non-canonical "g"
// lines without disturbing the canonical content (same hash as a plain trace).
func TestTraceTimingFlag(t *testing.T) {
	spec := writeSpec(t, traceSweepSpec)
	plain := filepath.Join(t.TempDir(), "plain.ndjson")
	timed := filepath.Join(t.TempDir(), "timed.ndjson")
	if code, _, errw := runCapture(t, "-scenario", spec, "-trace", plain); code != 0 {
		t.Fatalf("plain exit %d, stderr: %s", code, errw)
	}
	if code, _, errw := runCapture(t, "-scenario", spec, "-trace", timed, "-trace-timing"); code != 0 {
		t.Fatalf("timed exit %d, stderr: %s", code, errw)
	}
	pb, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := os.ReadFile(timed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(tb, []byte(`{"t":"g"`)) {
		t.Fatal("-trace-timing produced no timing lines")
	}
	split := func(b []byte) [][]byte {
		var out [][]byte
		for _, ln := range bytes.Split(b, []byte("\n")) {
			if len(ln) > 0 {
				out = append(out, ln)
			}
		}
		return out
	}
	if ph, th := obs.Hash(split(pb)), obs.Hash(split(tb)); ph != th {
		t.Fatalf("canonical hash changed with timing lines: %s vs %s", ph, th)
	}

	if code, _, errw := runCapture(t, "-scenario", spec, "-trace-timing"); code != 2 {
		t.Fatalf("exit %d for -trace-timing without -trace, want 2; stderr: %s", code, errw)
	}
}

// TestProfileFlags checks the profiling contract: both profile files exist
// and are non-empty after a run.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	code, _, errw := runCapture(t, "-algo", "mis", "-graph", "cycle", "-n", "16",
		"-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// TestRemoteRejectsProfiles pins that profiling flags are a usage error with
// -remote — they would profile the idle client, not the run.
func TestRemoteRejectsProfiles(t *testing.T) {
	code, _, errw := runCapture(t, "-algo", "mis", "-graph", "cycle", "-n", "16",
		"-remote", "http://127.0.0.1:1", "-cpuprofile", filepath.Join(t.TempDir(), "cpu.out"))
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, errw)
	}
	if !strings.Contains(errw, "not supported with -remote") {
		t.Errorf("stderr missing diagnosis: %s", errw)
	}
}
