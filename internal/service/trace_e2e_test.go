package service_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ncc/internal/obs"
	"ncc/internal/scenario"
	"ncc/internal/service"
)

// localTrace renders js's telemetry trace exactly as the daemon's scheduler
// does: every expanded run through one canonical-only collector.
func localTrace(t *testing.T, js string) []byte {
	t.Helper()
	s, err := scenario.Decode([]byte(js))
	if err != nil {
		t.Fatal(err)
	}
	col := &obs.Collector{}
	for _, c := range s.Expand() {
		if _, err := scenario.RunTraced(c, col, scenario.RunOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	return col.Bytes()
}

// fetchTrace GETs a job's trace stream and returns body plus the correlation
// headers.
func fetchTrace(t *testing.T, base, id string) (body []byte, jobID, traceID string) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: status %d", resp.StatusCode)
	}
	jobID = resp.Header.Get("X-NCC-Job-Id")
	traceID = resp.Header.Get("X-NCC-Trace-Id")
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), jobID, traceID
}

// TestTraceEndToEnd is the trace plane's acceptance test against a local
// daemon: the streamed trace validates, matches a local in-process execution
// byte-for-byte, survives the result cache byte-identically, and carries the
// job/trace correlation headers.
func TestTraceEndToEnd(t *testing.T) {
	want := localTrace(t, sweepJSON)
	ts := newTestServer(t, service.Config{WorkerBudget: 4, Executors: 2})

	info := submit(t, ts.URL, sweepJSON)
	waitState(t, ts.URL, info.ID, service.StateDone, 60*time.Second)
	if info.TraceID == "" {
		t.Fatal("JobInfo has no trace id")
	}

	got, jobID, traceID := fetchTrace(t, ts.URL, info.ID)
	if err := obs.Validate(got); err != nil {
		t.Fatalf("streamed trace invalid: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed trace differs from local run:\nlocal: %q\ndaemon: %q", want, got)
	}
	if jobID != info.ID || traceID != info.TraceID {
		t.Fatalf("trace headers job=%q trace=%q, want %q/%q", jobID, traceID, info.ID, info.TraceID)
	}

	// A cached re-submission replays the identical trace under the same trace
	// id (it is derived from the scenario hash, not the job).
	info2 := submit(t, ts.URL, sweepJSON)
	if !info2.Cached {
		t.Fatal("re-submission missed the cache")
	}
	if info2.TraceID != info.TraceID {
		t.Fatalf("cached job trace id %q, want %q", info2.TraceID, info.TraceID)
	}
	got2, _, _ := fetchTrace(t, ts.URL, info2.ID)
	if !bytes.Equal(got2, want) {
		t.Fatal("cached trace differs from the original")
	}
}

// TestTraceClusterByteIdentity pins the cross-deployment guarantee: the trace
// a coordinator proxies from a worker fleet is byte-identical to a local
// in-process execution of the same (faulted) sweep, whether the coordinator
// keeps it in memory or streams it into its blob store — and so is the
// replay of the coordinator's cached result.
func TestTraceClusterByteIdentity(t *testing.T) {
	const faulted = `{"name":"trace-faulted","algo":"mis","graph":{"family":"kforest","params":{"n":24,"k":2},"seed":3},"model":{"seed":3},"faults":{"models":[{"model":"crash","params":{"count":4,"round":2}}]},"sweep":{"seeds":[1,2,3]}}`
	want := localTrace(t, faulted)
	for _, cacheDir := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache-dir=%v", cacheDir), func(t *testing.T) {
			cfg := service.Config{WorkerTTL: time.Minute}
			if cacheDir {
				cfg.CacheDir = t.TempDir()
			}
			coord := newCluster(t, cfg)
			info := submit(t, coord, faulted)
			waitState(t, coord, info.ID, service.StateDone, 60*time.Second)
			got, _, traceID := fetchTrace(t, coord, info.ID)
			if err := obs.Validate(got); err != nil {
				t.Fatalf("proxied trace invalid: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("cluster trace differs from local execution:\nlocal: %d bytes\ncluster: %d bytes", len(want), len(got))
			}
			if traceID != info.TraceID {
				t.Fatalf("proxied trace id %q, want %q", traceID, info.TraceID)
			}
			wantLines := bytes.Count(want, []byte("\n"))
			if n := jobInfo(t, coord, info.ID).Trace; n != wantLines {
				t.Fatalf("JobInfo.Trace = %d, want %d", n, wantLines)
			}
			again := submit(t, coord, faulted)
			if !again.Cached || again.Trace != wantLines {
				t.Fatalf("re-submission: cached=%v trace=%d, want a hit of %d lines", again.Cached, again.Trace, wantLines)
			}
			if got, _, _ := fetchTrace(t, coord, again.ID); !bytes.Equal(got, want) {
				t.Fatal("cached trace differs from local execution")
			}
		})
	}
}

// TestCoordinatorCorruptTraceBlob damages one byte of a trace a coordinator
// stored in its blob store: serving the trace must then fail instead of
// ending cleanly, and the next submission must re-execute, which repairs the
// blob. A fresh coordinator over the same directory finds the damage on its
// disk hit; the same coordinator, whose memory cache still holds the
// scenario, must have dropped that entry when serving the trace failed.
func TestCoordinatorCorruptTraceBlob(t *testing.T) {
	for _, sameCoord := range []bool{false, true} {
		t.Run(fmt.Sprintf("same-coordinator=%v", sameCoord), func(t *testing.T) {
			dir := t.TempDir()
			want := localTrace(t, sweepJSON)
			sum := sha256.Sum256(want)
			blobPath := filepath.Join(dir, hex.EncodeToString(sum[:])+".ndjson")

			coord := newCluster(t, service.Config{WorkerTTL: time.Minute, CacheDir: dir})
			info := submit(t, coord, sweepJSON)
			waitState(t, coord, info.ID, service.StateDone, 60*time.Second)
			if got, _, _ := fetchTrace(t, coord, info.ID); !bytes.Equal(got, want) {
				t.Fatal("stored trace differs from local execution")
			}
			if hit := submit(t, coord, sweepJSON); !hit.Cached {
				t.Fatal("an intact stored trace was not a memory hit")
			}
			data, err := os.ReadFile(blobPath)
			if err != nil {
				t.Fatalf("trace blob not at its content address: %v", err)
			}
			data[len(data)/2] ^= 1
			if err := os.WriteFile(blobPath, data, 0o644); err != nil {
				t.Fatal(err)
			}
			resp, err := http.Get(coord + "/v1/jobs/" + info.ID + "/trace")
			if err == nil {
				_, err = io.ReadAll(resp.Body)
				resp.Body.Close()
			}
			if err == nil {
				t.Fatalf("trace of a damaged blob answered %d and ended cleanly", resp.StatusCode)
			}

			next := coord
			if !sameCoord {
				next = newCluster(t, service.Config{WorkerTTL: time.Minute, CacheDir: dir})
			}
			again := submit(t, next, sweepJSON)
			if again.Cached {
				t.Fatal(`a submission after the damaged blob was served answered "cached":true`)
			}
			waitState(t, next, again.ID, service.StateDone, 60*time.Second)
			if got, _, _ := fetchTrace(t, next, again.ID); !bytes.Equal(got, want) {
				t.Fatal("re-executed trace differs from local execution")
			}
			if data, err := os.ReadFile(blobPath); err != nil || !bytes.Equal(data, want) {
				t.Fatalf("re-execution did not repair the trace blob: %v", err)
			}
		})
	}
}
