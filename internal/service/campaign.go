package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"ncc/internal/campaign"
	"ncc/internal/obs"
	"ncc/internal/scenario"
)

// defaultRetainCampaigns bounds how many campaigns the daemon remembers;
// terminal campaigns beyond it are forgotten oldest-first (their units'
// results stay in the result cache, so re-running a forgotten campaign is
// cheap).
const defaultRetainCampaigns = 256

// CampaignUnitInfo is the JSON view of one expanded campaign unit and the job
// executing it. Hash is the unit scenario's canonical hash — the same id the
// jobs API, the result cache, and local `ncccampaign` runs report, so a unit
// can be correlated across every surface.
type CampaignUnitInfo struct {
	Entry   string           `json:"entry"`
	Variant campaign.Variant `json:"variant"`
	Hash    string           `json:"hash"`
	JobID   string           `json:"jobId"`
	TraceID string           `json:"traceId,omitempty"`
	State   State            `json:"state"`
	Cached  bool             `json:"cached"`
	Records int              `json:"records"`
}

// CampaignInfo is the JSON view of a campaign returned by POST /v1/campaigns
// and the status endpoints.
type CampaignInfo struct {
	ID        string             `json:"id"`
	Name      string             `json:"name"`
	State     State              `json:"state"`
	Units     []CampaignUnitInfo `json:"units"`
	Error     string             `json:"error,omitempty"`
	Submitted time.Time          `json:"submitted"`
}

// campaignRun tracks one submitted campaign: its expanded units, the jobs
// executing them (deduplicated units share a job), and — once every job is
// terminal — the merged comparative report.
type campaignRun struct {
	id        string
	spec      campaign.Spec
	units     []campaign.Unit
	jobs      []*Job // parallel to units
	submitted time.Time

	mu     sync.Mutex
	state  State
	errMsg string
	report *campaign.Report
}

func (c *campaignRun) Info() CampaignInfo {
	c.mu.Lock()
	state, errMsg := c.state, c.errMsg
	c.mu.Unlock()
	info := CampaignInfo{
		ID:        c.id,
		Name:      c.spec.Name,
		State:     state,
		Error:     errMsg,
		Submitted: c.submitted,
		Units:     make([]CampaignUnitInfo, len(c.units)),
	}
	for i, u := range c.units {
		ji := c.jobs[i].Info()
		info.Units[i] = CampaignUnitInfo{
			Entry:   u.Entry,
			Variant: u.Variant,
			Hash:    u.Hash,
			JobID:   ji.ID,
			TraceID: ji.TraceID,
			State:   ji.State,
			Cached:  ji.Cached,
			Records: ji.Records,
		}
	}
	return info
}

// result snapshots the terminal outcome: the report when done, the failure
// cause when failed, neither while running.
func (c *campaignRun) result() (*campaign.Report, State, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.report, c.state, c.errMsg
}

func (c *campaignRun) finish(rep *campaign.Report, errMsg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if errMsg != "" {
		c.state = StateFailed
		c.errMsg = errMsg
	} else {
		c.state = StateDone
		c.report = rep
	}
}

// watch drives a campaign to its terminal state: wait for every unit's job,
// then merge the per-unit record streams into the comparative report. A unit
// whose job failed or was canceled fails the whole campaign (a report built
// from partial results would silently compare different run sets); individual
// run errors inside a completed job are ordinary report rows.
func (c *campaignRun) watch(m *metrics) {
	for _, j := range c.jobs {
		for {
			_, _, terminal, changed := j.next(recordLog, 0)
			if terminal {
				break
			}
			<-changed
		}
	}
	failMsg := ""
	for i, j := range c.jobs {
		if info := j.Info(); info.State != StateDone {
			failMsg = fmt.Sprintf("unit %s/%s (job %s) ended %s", c.units[i].Entry, c.units[i].Variant, j.ID, info.State)
			if info.Error != "" {
				failMsg += ": " + info.Error
			}
			break
		}
	}
	if failMsg != "" {
		c.finish(nil, failMsg)
		m.campaignsFailed.Add(1)
		return
	}
	records := make(map[string][]scenario.Record, len(c.units))
	traces := make(map[string]string, len(c.units))
	for i, u := range c.units {
		if _, ok := records[u.Hash]; ok {
			continue
		}
		res := c.jobs[i].result()
		recs := make([]scenario.Record, 0, len(res.lines))
		for _, line := range res.lines {
			var rec scenario.Record
			if err := json.Unmarshal(line, &rec); err != nil {
				c.finish(nil, fmt.Sprintf("unit %s/%s: decoding record: %v", u.Entry, u.Variant, err))
				m.campaignsFailed.Add(1)
				return
			}
			recs = append(recs, rec)
		}
		records[u.Hash] = recs
		// The canonical content hash, so the report row matches a local run's
		// trace ref byte-for-byte. A daemon's traces carry no timing lines,
		// so a stored trace's blob hash is that hash, read without loading
		// the blob.
		switch {
		case res.traceBlob.lines > 0:
			traces[u.Hash] = "sha256:" + res.traceBlob.hash
		case len(res.trace) > 0:
			traces[u.Hash] = obs.Hash(res.trace)
		}
	}
	rep, err := campaign.BuildReport(c.spec.Name, c.units, records, traces)
	if err != nil {
		c.finish(nil, err.Error())
		m.campaignsFailed.Add(1)
		return
	}
	c.finish(&rep, "")
	m.campaignsDone.Add(1)
}

// campaignStore owns campaign identity and retention, mirroring the JobStore.
type campaignStore struct {
	mu     sync.Mutex
	byID   map[string]*campaignRun
	order  []*campaignRun
	nextID int
	retain int
}

func newCampaignStore(retain int) *campaignStore {
	if retain <= 0 {
		retain = defaultRetainCampaigns
	}
	return &campaignStore{byID: map[string]*campaignRun{}, retain: retain}
}

func (st *campaignStore) create(sp campaign.Spec, units []campaign.Unit, jobs []*Job) *campaignRun {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.nextID++
	c := &campaignRun{
		id:        fmt.Sprintf("c%04d", st.nextID),
		spec:      sp,
		units:     units,
		jobs:      jobs,
		submitted: time.Now().UTC(),
		state:     StateRunning,
	}
	st.byID[c.id] = c
	st.order = append(st.order, c)
	excess := len(st.order) - st.retain
	if excess > 0 {
		kept := st.order[:0]
		for _, old := range st.order {
			if _, state, _ := old.result(); excess > 0 && state.terminal() {
				delete(st.byID, old.id)
				excess--
				continue
			}
			kept = append(kept, old)
		}
		clear(st.order[len(kept):])
		st.order = kept
	}
	return c
}

func (st *campaignStore) get(id string) (*campaignRun, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	c, ok := st.byID[id]
	return c, ok
}

func (st *campaignStore) list() []CampaignInfo {
	st.mu.Lock()
	order := append([]*campaignRun(nil), st.order...)
	st.mu.Unlock()
	out := make([]CampaignInfo, 0, len(order))
	for _, c := range order {
		out = append(out, c.Info())
	}
	return out
}

// handleCampaignSubmit answers POST /v1/campaigns: decode the strict spec
// (inline scenarios only — refs are a CLI-side convenience), expand the
// matrix, admit every distinct unit through the ordinary job admission path
// (cache lookup, in-flight coalescing, backend submit), and return the
// campaign with its unit-to-job assignments. The report is built
// asynchronously once every job completes.
func (s *Server) handleCampaignSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "campaign body exceeds %d bytes", tooLarge.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	sp, err := campaign.Decode(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := sp.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	units, err := sp.Expand()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	jobs := make([]*Job, len(units))
	byHash := map[string]*Job{}
	for i, u := range units {
		if j, ok := byHash[u.Hash]; ok {
			jobs[i] = j
			continue
		}
		j, err := s.admit(u.Scenario, u.Hash)
		if err != nil {
			// Units admitted before the failure keep running; their results
			// land in the cache, so a retried campaign picks them up for free.
			refuse(w, err, "unit %s/%s: %v", u.Entry, u.Variant, err)
			return
		}
		byHash[u.Hash] = j
		jobs[i] = j
	}
	c := s.campaigns.create(sp, units, jobs)
	s.m.campaignsSubmitted.Add(1)
	go c.watch(s.m)
	writeJSON(w, http.StatusCreated, c.Info())
}

func (s *Server) handleCampaignList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"campaigns": s.campaigns.list()})
}

func (s *Server) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaigns.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown campaign %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, c.Info())
}

// handleCampaignReport answers GET /v1/campaigns/{id}/report: the merged
// comparative report as JSON (byte-identical to a local `ncccampaign -json`
// run of the same spec — the report contains no wall-clock fields), or as the
// human-readable table with ?format=text.
func (s *Server) handleCampaignReport(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaigns.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown campaign %q", r.PathValue("id"))
		return
	}
	rep, state, errMsg := c.result()
	switch state {
	case StateDone:
	case StateFailed:
		httpError(w, http.StatusConflict, "campaign %s failed: %s", c.id, errMsg)
		return
	default:
		httpError(w, http.StatusConflict, "campaign %s is still %s", c.id, state)
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		campaign.RenderText(w, *rep)
		return
	}
	writeJSON(w, http.StatusOK, *rep)
}
