package service_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"ncc/internal/campaign"
	"ncc/internal/scenario"
	"ncc/internal/service"
)

// TestClientErrorDecoding pins how a non-2xx answer becomes an
// *service.APIError: the {"error": ...} message when the body is one, else
// the trimmed raw body, read up to 4 KiB.
func TestClientErrorDecoding(t *testing.T) {
	long := `{"error":"` + strings.Repeat("x", 5000) + `"}`
	for _, tc := range []struct {
		name   string
		status int
		body   string
		msg    string
		text   string
	}{
		{"json", http.StatusBadRequest, `{"error":"bad scenario"}` + "\n", "bad scenario",
			"GET /v1/jobs/j1: 400 Bad Request: bad scenario"},
		{"plain", http.StatusBadGateway, "upstream down\n", "upstream down",
			"GET /v1/jobs/j1: 502 Bad Gateway: upstream down"},
		{"empty", http.StatusNotFound, "", "",
			"GET /v1/jobs/j1: 404 Not Found"},
		{"over limit", http.StatusInternalServerError, long, long[:4096],
			"GET /v1/jobs/j1: 500 Internal Server Error: " + long[:4096]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(tc.status)
				io.WriteString(w, tc.body)
			}))
			defer ts.Close()
			_, err := service.NewClient(ts.URL, "").Job(context.Background(), "j1")
			var apiErr *service.APIError
			if !errors.As(err, &apiErr) {
				t.Fatalf("err = %v, want an *APIError", err)
			}
			if apiErr.Code != tc.status || apiErr.Msg != tc.msg {
				t.Errorf("code %d msg %q, want %d %q", apiErr.Code, apiErr.Msg, tc.status, tc.msg)
			}
			if err.Error() != tc.text {
				t.Errorf("Error() = %q, want %q", err.Error(), tc.text)
			}
		})
	}
}

// TestClientRoutesSendToken calls every route of a Client against a stub
// daemon and checks each request's method, path and bearer header.
func TestClientRoutesSendToken(t *testing.T) {
	var mu sync.Mutex
	var got []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = append(got, fmt.Sprintf("%s %s %s", r.Method, r.URL.Path, r.Header.Get("Authorization")))
		mu.Unlock()
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, "{}\n")
	}))
	defer ts.Close()

	ctx := context.Background()
	for _, c := range []service.Client{
		service.NewClient(ts.URL+"/", "tok"),
		service.NewClusterClient(ts.URL+"/", "tok"),
	} {
		check := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		_, err := c.SubmitJob(ctx, scenario.Scenario{})
		check(err)
		_, err = c.Job(ctx, "j1")
		check(err)
		rc, err := c.Records(ctx, "j1")
		check(err)
		rc.Close()
		rc, err = c.Trace(ctx, "j1")
		check(err)
		rc.Close()
		check(c.CancelJob(ctx, "j1"))
		check(c.PutGraph(ctx, "h", strings.NewReader("g")))
		rc, err = c.Graph("h")
		check(err)
		rc.Close()
		check(c.RegisterWorker(ctx, "w 1", "http://w1", 2))
		check(c.DeregisterWorker(ctx, "w 1"))
		_, err = c.SubmitCampaign(ctx, campaign.Spec{})
		check(err)
		_, err = c.Campaign(ctx, "c1")
		check(err)
		_, err = c.CampaignReport(ctx, "c1")
		check(err)

		want := []string{
			"POST /v1/jobs", "GET /v1/jobs/j1", "GET /v1/jobs/j1/records", "GET /v1/jobs/j1/trace",
			"DELETE /v1/jobs/j1", "PUT /v1/graphs/h", "GET /v1/graphs/h",
			"POST /v1/workers", "DELETE /v1/workers/w 1",
			"POST /v1/campaigns", "GET /v1/campaigns/c1", "GET /v1/campaigns/c1/report",
		}
		for i := range want {
			want[i] += " Bearer tok"
		}
		mu.Lock()
		if !slices.Equal(got, want) {
			t.Errorf("requests:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		got = nil
		mu.Unlock()
	}
}
