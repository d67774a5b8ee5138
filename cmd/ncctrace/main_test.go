package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ncc/internal/ncc"
	"ncc/internal/obs"
)

// synthTrace writes a deterministic little trace: rounds of geometric decay
// from a fixed starting volume. bump shifts one round's traffic so two traces
// can diverge on demand.
func synthTrace(t *testing.T, path string, rounds, bump int) {
	t.Helper()
	c := &obs.Collector{}
	probe := c.Probe()
	var st ncc.Stats
	for i := 0; i < rounds; i++ {
		msgs := 512 >> i
		if i == bump {
			msgs *= 3
		}
		probe(ncc.RoundSample{
			Round: i, Messages: msgs, Delivered: msgs, Words: msgs,
			Active: min(32, msgs), MaxSendLoad: max(1, msgs/32),
			MaxRecvOffered: max(1, msgs/32), MaxRecvDelivered: max(1, msgs/32),
		}, nil)
		st.Messages += int64(msgs)
		st.Words += int64(msgs)
		st.Rounds++
	}
	c.FinishRun(obs.Header{Scenario: "sha256:feed", Algo: "broadcast", Graph: "ring", N: 32, Seed: 3, Cap: 40}, st, false)
	if err := os.WriteFile(path, c.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func runCapture(t *testing.T, stdin string, args ...string) (int, string, string) {
	t.Helper()
	var out, errw strings.Builder
	code := run(args, strings.NewReader(stdin), &out, &errw)
	return code, out.String(), errw.String()
}

// TestSummaryDeterministic pins that summary output is a pure function of the
// trace bytes: two invocations agree byte for byte and carry the expected
// sections.
func TestSummaryDeterministic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.ndjson")
	synthTrace(t, path, 8, -1)
	code, out1, errw := runCapture(t, "", "summary", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	_, out2, _ := runCapture(t, "", "summary", path)
	if out1 != out2 {
		t.Fatal("summary output is not deterministic")
	}
	for _, want := range []string{"broadcast", "ring", "rate:", "phase"} {
		if !strings.Contains(out1, want) {
			t.Errorf("summary missing %q:\n%s", want, out1)
		}
	}

	// Stdin works identically.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	code, outStdin, _ := runCapture(t, string(data), "summary", "-")
	if code != 0 || outStdin != out1 {
		t.Fatalf("stdin summary differs (exit %d):\n%s", code, outStdin)
	}
}

// TestDiffExitCodes pins the gate contract: identical traces exit 0, diverging
// traces exit 1 and localize the diverging rounds.
func TestDiffExitCodes(t *testing.T) {
	dir := t.TempDir()
	a, b, c := filepath.Join(dir, "a.ndjson"), filepath.Join(dir, "b.ndjson"), filepath.Join(dir, "c.ndjson")
	synthTrace(t, a, 8, -1)
	synthTrace(t, b, 8, -1)
	synthTrace(t, c, 8, 3)

	code, out, errw := runCapture(t, "", "diff", a, b)
	if code != 0 {
		t.Fatalf("identical traces: exit %d, stderr: %s\n%s", code, errw, out)
	}
	code, out, _ = runCapture(t, "", "diff", a, c)
	if code != 1 {
		t.Fatalf("diverging traces: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "round") {
		t.Errorf("diff does not localize rounds:\n%s", out)
	}
	_, out2, _ := runCapture(t, "", "diff", a, c)
	if out != out2 {
		t.Fatal("diff output is not deterministic")
	}
}

func TestValidate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.ndjson")
	synthTrace(t, path, 4, -1)
	code, out, errw := runCapture(t, "", "validate", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	if !strings.Contains(out, "valid: 1 runs, 4 rounds, hash sha256:") {
		t.Errorf("unexpected validate output: %s", out)
	}

	bad := filepath.Join(t.TempDir(), "bad.ndjson")
	if err := os.WriteFile(bad, []byte(`{"t":"r","round":0}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errw := runCapture(t, "", "validate", bad); code != 1 || errw == "" {
		t.Fatalf("invalid trace: exit %d, stderr: %q", code, errw)
	}
}

func TestExportPprofLabels(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.ndjson")
	synthTrace(t, path, 6, -1)
	code, plain, errw := runCapture(t, "", "export", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	code, labeled, errw := runCapture(t, "", "export", "-pprof-labels", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	if !strings.Contains(labeled, "run=0") {
		t.Errorf("labeled export missing pprof tag keys:\n%s", labeled)
	}
	if plain == labeled {
		t.Error("-pprof-labels output identical to plain export")
	}
}

func TestExportCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.ndjson")
	synthTrace(t, path, 6, -1)
	code, out, errw := runCapture(t, "", "export", "-csv", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "run,round,messages,words,maxRecvOffered" {
		t.Errorf("CSV header = %q", lines[0])
	}
	if len(lines) != 1+6 || !strings.HasPrefix(lines[6], "0,5,") {
		t.Errorf("CSV has rows %q, want 6 rounds of run 0", lines[1:])
	}
	if code, _, _ := runCapture(t, "", "export", "-csv", "-pprof-labels", path); code != 2 {
		t.Errorf("-csv with -pprof-labels: exit %d, want 2", code)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCapture(t, "", ""); code != 2 {
		t.Errorf("empty command: exit %d, want 2", code)
	}
	if code, _, errw := runCapture(t, "", "frobnicate"); code != 2 || !strings.Contains(errw, "unknown command") {
		t.Errorf("unknown command: exit %d, stderr %q", code, errw)
	}
	if code, _, _ := runCapture(t, "", "summary"); code != 2 {
		t.Errorf("summary without file: exit %d, want 2", code)
	}
	if code, _, errw := runCapture(t, "", "summary", filepath.Join(t.TempDir(), "missing.ndjson")); code != 1 || errw == "" {
		t.Errorf("missing file: exit %d, stderr %q", code, errw)
	}
	if code, out, _ := runCapture(t, "", "help"); code != 0 || !strings.Contains(out, "usage:") {
		t.Errorf("help: exit %d, out %q", code, out)
	}
}
