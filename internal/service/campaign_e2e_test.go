package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"ncc/internal/campaign"
	"ncc/internal/service"
)

func submitCampaign(t *testing.T, base, js string) (service.CampaignInfo, int) {
	t.Helper()
	resp, err := http.Post(base+"/v1/campaigns", "application/json", strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info service.CampaignInfo
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
	}
	return info, resp.StatusCode
}

func waitCampaign(t *testing.T, base, id string, timeout time.Duration) service.CampaignInfo {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var info service.CampaignInfo
		if err := json.Unmarshal(fetch(t, base+"/v1/campaigns/"+id), &info); err != nil {
			t.Fatal(err)
		}
		if info.State == service.StateDone || info.State == service.StateFailed {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in state %q", id, info.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCampaignEndToEnd is the campaign acceptance test, run against the
// checked-in example campaign: POST /v1/campaigns produces report JSON
// byte-identical to a local ncccampaign-style Execute of the same spec, an
// immediate re-submission is served entirely from the result cache (asserted
// via the daemon's cache metrics), and the text rendering is served at
// ?format=text.
func TestCampaignEndToEnd(t *testing.T) {
	specJSON, err := os.ReadFile("../../campaigns/compare-small.json")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := campaign.Decode(specJSON)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	localRep, err := campaign.Execute(sp)
	if err != nil {
		t.Fatal(err)
	}
	localBytes, err := json.Marshal(localRep)
	if err != nil {
		t.Fatal(err)
	}
	localBytes = append(localBytes, '\n')

	ts := newTestServer(t, service.Config{WorkerBudget: 4, Executors: 2})
	info, status := submitCampaign(t, ts.URL, string(specJSON))
	if status != http.StatusCreated {
		t.Fatalf("POST /v1/campaigns: status %d, want 201", status)
	}
	units, _ := sp.Expand()
	if len(info.Units) != len(units) {
		t.Fatalf("campaign has %d units, want %d", len(info.Units), len(units))
	}
	for i, u := range info.Units {
		if u.Hash == "" || u.JobID == "" {
			t.Fatalf("unit %d (%s/%s) missing hash or job id: %+v", i, u.Entry, u.Variant, u)
		}
		if u.Hash != units[i].Hash {
			t.Fatalf("unit %d hash %s differs from expansion hash %s", i, u.Hash, units[i].Hash)
		}
	}

	final := waitCampaign(t, ts.URL, info.ID, 120*time.Second)
	if final.State != service.StateDone {
		t.Fatalf("campaign ended %s: %s", final.State, final.Error)
	}
	gotBytes := fetch(t, ts.URL+"/v1/campaigns/"+info.ID+"/report")
	if !bytes.Equal(gotBytes, localBytes) {
		t.Fatalf("server report differs from local execution:\nlocal:  %s\nserver: %s", localBytes, gotBytes)
	}

	text := string(fetch(t, ts.URL+"/v1/campaigns/"+info.ID+"/report?format=text"))
	if !strings.Contains(text, "campaign "+sp.Name) || !strings.Contains(text, "baseline") {
		t.Fatalf("text report missing header or baseline rows:\n%s", text)
	}

	// Immediate re-run: every unit is answered from the result cache, the
	// report bytes do not move. Acceptance floor is >= 50% served from cache;
	// with all hashes already resident it is 100%.
	misses := metricValue(t, ts.URL, "nccd_cache_misses_total")
	info2, status := submitCampaign(t, ts.URL, string(specJSON))
	if status != http.StatusCreated {
		t.Fatalf("re-submission: status %d, want 201", status)
	}
	final2 := waitCampaign(t, ts.URL, info2.ID, 60*time.Second)
	if final2.State != service.StateDone {
		t.Fatalf("re-run campaign ended %s: %s", final2.State, final2.Error)
	}
	hits := metricValue(t, ts.URL, "nccd_cache_hits_total")
	if distinct := distinctHashes(units); hits < float64(distinct+1)/2 {
		t.Fatalf("re-run cache hits = %g, want >= half of %d units", hits, distinct)
	}
	if m := metricValue(t, ts.URL, "nccd_cache_misses_total"); m != misses {
		t.Fatalf("re-run executed %g fresh units, want 0", m-misses)
	}
	if got2 := fetch(t, ts.URL+"/v1/campaigns/"+info2.ID+"/report"); !bytes.Equal(got2, gotBytes) {
		t.Fatal("cached re-run report differs from the original")
	}

	// The campaign listing holds both runs, newest-counted metrics agree.
	var list struct {
		Campaigns []service.CampaignInfo `json:"campaigns"`
	}
	if err := json.Unmarshal(fetch(t, ts.URL+"/v1/campaigns"), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Campaigns) != 2 {
		t.Fatalf("campaign listing has %d entries, want 2", len(list.Campaigns))
	}
	if n := metricValue(t, ts.URL, "nccd_campaigns_done_total"); n != 2 {
		t.Fatalf("nccd_campaigns_done_total = %g, want 2", n)
	}
}

func distinctHashes(units []campaign.Unit) int {
	seen := map[string]bool{}
	for _, u := range units {
		seen[u.Hash] = true
	}
	return len(seen)
}

// TestCampaignRejects covers the campaign API's error surface: strict
// decoding with field paths, server-side refusal of unresolved refs, 404 on
// unknown ids, and 409 for a report that is not ready.
func TestCampaignRejects(t *testing.T) {
	ts := newTestServer(t, service.Config{WorkerBudget: 2})
	cases := []struct {
		js   string
		want string
	}{
		{`{"name":"x","entries":[{"basline":"none"}]}`, "entries[0].basline"},
		{`{"name":"x","entries":[{"ref":"other.json"}]}`, "unresolved ref"},
		{`{"entries":[]}`, "no name"},
		{`not json`, "invalid character"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(tc.js))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("campaign %q: status %d, want 400", tc.js, resp.StatusCode)
		}
		if !strings.Contains(string(body), tc.want) {
			t.Fatalf("campaign %q: error %q does not mention %q", tc.js, body, tc.want)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/campaigns/c9999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign: status %d, want 404", resp.StatusCode)
	}

	// A campaign held up by a spinning unit has no report yet: 409.
	spinCampaign := fmt.Sprintf(`{"name":"held","entries":[{"baseline":"none","scenario":%s}]}`, spinJSON)
	info, status := submitCampaign(t, ts.URL, spinCampaign)
	if status != http.StatusCreated {
		t.Fatalf("spin campaign: status %d, want 201", status)
	}
	resp, err = http.Get(ts.URL + "/v1/campaigns/" + info.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("report of a running campaign: status %d, want 409", resp.StatusCode)
	}
	// Cancel the unit's job; the campaign must end failed (partial results
	// never silently become a report).
	resp, err = http.Post(ts.URL+"/v1/jobs/"+info.Units[0].JobID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	final := waitCampaign(t, ts.URL, info.ID, 30*time.Second)
	if final.State != service.StateFailed || !strings.Contains(final.Error, "canceled") {
		t.Fatalf("campaign after unit cancel: state %s error %q, want failed/canceled", final.State, final.Error)
	}
	resp, err = http.Get(ts.URL + "/v1/campaigns/" + info.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("report of a failed campaign: status %d, want 409", resp.StatusCode)
	}
}

// TestJobHashExposed pins the canonical scenario hash into the job surfaces:
// POST response, status endpoint, and the listing — the id a client needs to
// correlate jobs with cache entries and campaign units.
func TestJobHashExposed(t *testing.T) {
	ts := newTestServer(t, service.Config{WorkerBudget: 2})
	info := submit(t, ts.URL, sweepJSON)
	if info.Hash == "" {
		t.Fatal("POST /v1/jobs response has no hash")
	}
	waitState(t, ts.URL, info.ID, service.StateDone, 60*time.Second)
	if h := jobInfo(t, ts.URL, info.ID).Hash; h != info.Hash {
		t.Fatalf("status hash %q differs from submission hash %q", h, info.Hash)
	}
	var list struct {
		Jobs []service.JobInfo `json:"jobs"`
	}
	if err := json.Unmarshal(fetch(t, ts.URL+"/v1/jobs"), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].Hash != info.Hash {
		t.Fatalf("listing hash = %+v, want %q", list.Jobs, info.Hash)
	}
}

// TestClusterTokenAuth covers the shared-token boundary end to end: without
// the bearer token every /v1/ route answers 401 (healthz and metrics stay
// open), with it the full cluster works — worker registration via Joiner,
// coordinator→worker dispatch, and an authenticated client submission.
func TestClusterTokenAuth(t *testing.T) {
	const token = "s3cret-cluster-token"

	coordSvc, err := service.NewCoordinator(service.Config{WorkerTTL: time.Minute, ClusterToken: token})
	if err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(coordSvc.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		coordSvc.Drain(ctx)
		coord.Close()
	})
	worker := newTestServer(t, service.Config{WorkerBudget: 2, Executors: 1, ClusterToken: token})

	// Unauthenticated: worker registration, job submission, listings all 401.
	for _, probe := range []struct {
		method, url, body string
	}{
		{http.MethodPost, coord.URL + "/v1/workers", fmt.Sprintf(`{"name":"w","url":%q,"capacity":1}`, worker.URL)},
		{http.MethodPost, coord.URL + "/v1/jobs", sweepJSON},
		{http.MethodGet, coord.URL + "/v1/jobs", ""},
		{http.MethodGet, worker.URL + "/v1/jobs", ""},
	} {
		req, err := http.NewRequest(probe.method, probe.url, strings.NewReader(probe.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("%s %s without token: status %d, want 401", probe.method, probe.url, resp.StatusCode)
		}
	}
	// A wrong token is as unauthorized as none.
	req, err := http.NewRequest(http.MethodGet, coord.URL+"/v1/jobs", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer wrong")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong token: status %d, want 401", resp.StatusCode)
	}
	// Probes stay open.
	for _, open := range []string{coord.URL + "/healthz", coord.URL + "/metrics"} {
		resp, err := http.Get(open)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s without token: status %d, want 200 (open probe)", open, resp.StatusCode)
		}
	}

	// Authenticated path: the Joiner presents the token to register, the
	// coordinator presents it back on dispatch, and the job completes
	// byte-identically to a local run.
	jctx, jcancel := context.WithCancel(context.Background())
	defer jcancel()
	jn := &service.Joiner{
		Coordinator: coord.URL,
		Self:        worker.URL,
		Name:        "w1",
		Capacity:    1,
		Interval:    50 * time.Millisecond,
		Token:       token,
	}
	joinDone := make(chan struct{})
	go func() {
		defer close(joinDone)
		jn.Run(jctx)
	}()
	t.Cleanup(func() { jcancel(); <-joinDone })
	deadline := time.Now().Add(10 * time.Second)
	for metricValue(t, coord.URL, "nccd_workers_live") != 1 {
		if time.Now().After(deadline) {
			t.Fatal("token-bearing joiner never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}

	authed := func(method, url, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp = authed(http.MethodPost, coord.URL+"/v1/jobs", sweepJSON)
	var info service.JobInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("authenticated submission: status %d err %v", resp.StatusCode, err)
	}
	deadline = time.Now().Add(60 * time.Second)
	for {
		resp = authed(http.MethodGet, coord.URL+"/v1/jobs/"+info.ID, "")
		var cur service.JobInfo
		err = json.NewDecoder(resp.Body).Decode(&cur)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == service.StateDone {
			break
		}
		if cur.State == service.StateFailed || cur.State == service.StateCanceled || time.Now().After(deadline) {
			t.Fatalf("authenticated cluster job ended %s: %s", cur.State, cur.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp = authed(http.MethodGet, coord.URL+"/v1/jobs/"+info.ID+"/records", "")
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := localLines(t, sweepJSON); !bytes.Equal(got, want) {
		t.Fatal("token-protected cluster stream differs from local run")
	}
}
