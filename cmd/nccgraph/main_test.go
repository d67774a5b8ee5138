package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

// hashOf extracts the "hash <h>" line a store-writing command prints.
func hashOf(t *testing.T, stdout string) string {
	t.Helper()
	for _, line := range strings.Split(stdout, "\n") {
		if h, ok := strings.CutPrefix(line, "hash "); ok {
			return h
		}
	}
	t.Fatalf("no hash line in output:\n%s", stdout)
	return ""
}

// TestGenExportIngestCycle is the CLI acceptance loop: generate a graph into
// the store, export it as an edge list, ingest that edge list, and land on
// the exact same content hash — the canonical encoding makes the round trip
// lossless and byte-identical.
func TestGenExportIngestCycle(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "graphs")

	out, errOut, code := runCmd(t, "gen", "-graph", "pa", "-n", "500", "-gparam", "k=2", "-seed", "42", "-graph-dir", store)
	if code != 0 {
		t.Fatalf("gen failed (%d): %s", code, errOut)
	}
	genHash := hashOf(t, out)

	edges := filepath.Join(dir, "pa.txt")
	if _, errOut, code = runCmd(t, "export", "-format", "edgelist", "-o", edges, "-graph-dir", store, genHash); code != 0 {
		t.Fatalf("export failed (%d): %s", code, errOut)
	}

	out, errOut, code = runCmd(t, "ingest", "-graph-dir", store, edges)
	if code != 0 {
		t.Fatalf("ingest failed (%d): %s", code, errOut)
	}
	if got := hashOf(t, out); got != genHash {
		t.Fatalf("ingest hash %s differs from gen hash %s", got, genHash)
	}
	if !strings.Contains(out, "identity ids") {
		t.Fatalf("export/ingest should run in identity mode:\n%s", out)
	}

	// -q prints just the hash (script-friendly).
	out, _, code = runCmd(t, "ingest", "-q", "-graph-dir", store, edges)
	if code != 0 || strings.TrimSpace(out) != genHash {
		t.Fatalf("ingest -q = %q (code %d), want bare %s", out, code, genHash)
	}
}

// TestInfoJSON checks the machine-readable graph description, including the
// capacity-policy registry tooling discovers policies through.
func TestInfoJSON(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "graphs")
	out, errOut, code := runCmd(t, "gen", "-graph", "kforest", "-n", "128", "-seed", "7", "-graph-dir", store)
	if code != 0 {
		t.Fatalf("gen failed (%d): %s", code, errOut)
	}
	hash := hashOf(t, out)

	out, errOut, code = runCmd(t, "info", "-json", "-graph-dir", store, hash)
	if code != 0 {
		t.Fatalf("info failed (%d): %s", code, errOut)
	}
	var info struct {
		Hash             string          `json:"hash"`
		N                int             `json:"n"`
		M                int             `json:"m"`
		Degeneracy       int             `json:"degeneracy"`
		Components       int             `json:"components"`
		CapacityPolicies json.RawMessage `json:"capacityPolicies"`
	}
	if err := json.Unmarshal([]byte(out), &info); err != nil {
		t.Fatalf("info -json output is not JSON: %v\n%s", err, out)
	}
	if info.Hash != hash || info.N != 128 || info.M == 0 {
		t.Fatalf("info mismatch: %+v", info)
	}
	// The policy listing is pinned byte for byte. Regenerate after a
	// deliberate registry change from the capacityPolicies array of
	// nccgraph info -json.
	golden, err := os.ReadFile(filepath.Join("testdata", "capacity_policies.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(info.CapacityPolicies) + "\n"; got != string(golden) {
		t.Fatalf("info -json capacityPolicies differs from testdata/capacity_policies.golden.json:\n%s", got)
	}
}

// TestIngestToFileAndInspect covers the -o path (no store) and info on a
// plain .nccg file.
func TestIngestToFileAndInspect(t *testing.T) {
	dir := t.TempDir()
	edges := filepath.Join(dir, "in.txt")
	if err := os.WriteFile(edges, []byte("# a comment\n1 2\n2 3\n3 1\n42 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	nccg := filepath.Join(dir, "out.nccg")
	out, errOut, code := runCmd(t, "ingest", "-o", nccg, edges)
	if code != 0 {
		t.Fatalf("ingest -o failed (%d): %s", code, errOut)
	}
	if !strings.Contains(out, "ids remapped dense") {
		t.Fatalf("sparse ids should trigger remap mode:\n%s", out)
	}
	out, errOut, code = runCmd(t, "info", nccg)
	if code != 0 {
		t.Fatalf("info on file failed (%d): %s", code, errOut)
	}
	if !strings.Contains(out, "n=4 m=4") {
		t.Fatalf("info: want n=4 m=4 in:\n%s", out)
	}
}

// TestUsageErrors pins the CLI's exit-code contract: 2 for usage problems,
// 1 for failed operations.
func TestUsageErrors(t *testing.T) {
	if _, _, code := runCmd(t); code != 2 {
		t.Errorf("no args: code %d, want 2", code)
	}
	if _, _, code := runCmd(t, "frobnicate"); code != 2 {
		t.Errorf("unknown command: code %d, want 2", code)
	}
	if _, _, code := runCmd(t, "ingest"); code != 2 {
		t.Errorf("ingest without a file: code %d, want 2", code)
	}
	if _, _, code := runCmd(t, "gen", "-graph", "no-such-family", "-graph-dir", t.TempDir()); code != 2 {
		t.Errorf("gen with unknown family: code %d, want 2", code)
	}
	if _, _, code := runCmd(t, "info", "-graph-dir", t.TempDir(), strings.Repeat("ef", 32)); code != 1 {
		t.Errorf("info on a missing hash: code %d, want 1", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.txt")
	os.WriteFile(bad, []byte("1 2\nnot numbers\n"), 0o644)
	if _, _, code := runCmd(t, "ingest", "-o", filepath.Join(t.TempDir(), "x.nccg"), bad); code != 1 {
		t.Errorf("ingest of malformed edges: code %d, want 1", code)
	}
}
