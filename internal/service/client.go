package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"time"

	"ncc/internal/campaign"
	"ncc/internal/scenario"
)

// Client is the one way a process talks to an nccd daemon: nccrun and
// ncccampaign in -remote mode, a coordinator dispatching to its workers, and
// a worker registering with its coordinator or fetching a graph from it. It
// owns the daemon's HTTP surface from the caller's side: the base URL, the
// bearer token, request building, and the decoding of every non-2xx answer
// into an *APIError.
type Client struct {
	base  string
	token string
	hc    *http.Client
}

// NewClient returns a client of the daemon at base (trailing slashes are
// trimmed) that sends token, when non-empty, as a bearer credential. It uses
// http.DefaultClient, whose requests wait as long as their context allows:
// the transport for an interactive CLI.
func NewClient(base, token string) Client {
	return Client{base: strings.TrimRight(base, "/"), token: token, hc: http.DefaultClient}
}

// NewClusterClient is NewClient over the transport of the cluster roles
// (coordinator to worker, worker to coordinator). Record streams are
// long-lived, so there is no whole-request timeout; instead the transport
// bounds the two places a dead peer could hang a call forever: establishing
// the connection and waiting for response headers. Stalls after the headers
// are handled by the heartbeat expiry path, which cancels and re-dispatches
// the jobs of a worker that stops heartbeating.
func NewClusterClient(base, token string) Client {
	c := NewClient(base, token)
	c.hc = clusterHTTP
	return c
}

var clusterHTTP = &http.Client{
	Transport: &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		ResponseHeaderTimeout: 15 * time.Second,
		IdleConnTimeout:       90 * time.Second,
		MaxIdleConnsPerHost:   8,
	},
}

// APIError is a daemon's non-2xx answer to one request: its status and the
// message of its {"error": ...} body, or the raw body when it has none.
type APIError struct {
	Method, Path string
	Status       string // e.g. "400 Bad Request"
	Code         int
	Msg          string
}

func (e *APIError) Error() string {
	s := fmt.Sprintf("%s %s: %s", e.Method, e.Path, e.Status)
	if e.Msg != "" {
		s += ": " + e.Msg
	}
	return s
}

// maxErrorBody bounds how much of an error answer is read.
const maxErrorBody = 4096

// apiError reads resp, a non-2xx answer, into an *APIError.
func apiError(method, path string, resp *http.Response) *APIError {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
	e := &APIError{Method: method, Path: path, Status: resp.Status, Code: resp.StatusCode}
	var body struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &body) == nil && body.Error != "" {
		e.Msg = body.Error
	} else {
		e.Msg = string(bytes.TrimSpace(data))
	}
	return e
}

// do sends one request and returns the body of a 2xx answer, which the
// caller closes; any other answer is returned as an *APIError.
func (c Client) do(ctx context.Context, method, path string, body io.Reader, contentType string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, apiError(method, path, resp)
	}
	return resp.Body, nil
}

// call sends in (when non-nil) as a JSON body and decodes the JSON answer
// into out (when non-nil).
func (c Client) call(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	contentType := ""
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body, contentType = bytes.NewReader(data), "application/json"
	}
	rc, err := c.do(ctx, method, path, body, contentType)
	if err != nil {
		return err
	}
	defer rc.Close()
	if out == nil {
		_, err = io.Copy(io.Discard, rc)
		return err
	}
	if err := json.NewDecoder(rc).Decode(out); err != nil {
		return fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
	}
	return nil
}

// SubmitJob posts sc to /v1/jobs. The answer is the new job, or the identical
// in-flight job it coalesced onto; either streams exactly sc's records.
func (c Client) SubmitJob(ctx context.Context, sc scenario.Scenario) (JobInfo, error) {
	var info JobInfo
	err := c.call(ctx, http.MethodPost, "/v1/jobs", sc, &info)
	return info, err
}

// Job fetches one job's status.
func (c Client) Job(ctx context.Context, id string) (JobInfo, error) {
	var info JobInfo
	err := c.call(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &info)
	return info, err
}

// Records opens a job's NDJSON record stream, which ends when the job does.
func (c Client) Records(ctx context.Context, id string) (io.ReadCloser, error) {
	return c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/records", nil, "")
}

// Trace opens a job's NDJSON telemetry trace stream.
func (c Client) Trace(ctx context.Context, id string) (io.ReadCloser, error) {
	return c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", nil, "")
}

// CancelJob cancels a queued or running job.
func (c Client) CancelJob(ctx context.Context, id string) error {
	return c.call(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil)
}

// PutGraph uploads a .nccg graph under its content hash.
func (c Client) PutGraph(ctx context.Context, hash string, graph io.Reader) error {
	rc, err := c.do(ctx, http.MethodPut, "/v1/graphs/"+hash, graph, "")
	if err != nil {
		return err
	}
	return rc.Close()
}

// Graph opens a stored graph's .nccg bytes. Its signature is the one
// graphio.SetFetcher takes, so a worker installs its coordinator's Graph.
func (c Client) Graph(hash string) (io.ReadCloser, error) {
	return c.do(context.Background(), http.MethodGet, "/v1/graphs/"+hash, nil, "")
}

// RegisterWorker registers (or heartbeats) the worker name serving at self
// with capacity job slots.
func (c Client) RegisterWorker(ctx context.Context, name, self string, capacity int) error {
	return c.call(ctx, http.MethodPost, "/v1/workers", registerRequest{Name: name, URL: self, Capacity: capacity}, nil)
}

// DeregisterWorker removes a worker from the coordinator's registry.
func (c Client) DeregisterWorker(ctx context.Context, name string) error {
	return c.call(ctx, http.MethodDelete, "/v1/workers/"+url.PathEscape(name), nil, nil)
}

// SubmitCampaign posts a resolved campaign spec to /v1/campaigns.
func (c Client) SubmitCampaign(ctx context.Context, sp campaign.Spec) (CampaignInfo, error) {
	var info CampaignInfo
	err := c.call(ctx, http.MethodPost, "/v1/campaigns", sp, &info)
	return info, err
}

// Campaign fetches one campaign's status.
func (c Client) Campaign(ctx context.Context, id string) (CampaignInfo, error) {
	var info CampaignInfo
	err := c.call(ctx, http.MethodGet, "/v1/campaigns/"+id, nil, &info)
	return info, err
}

// CampaignReport returns a finished campaign's JSON report, byte for byte.
func (c Client) CampaignReport(ctx context.Context, id string) ([]byte, error) {
	rc, err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+id+"/report", nil, "")
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}
