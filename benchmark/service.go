package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"ncc/internal/campaign"
	"ncc/internal/scenario"
	"ncc/internal/service"
)

const (
	hitShare   = 0.4 // share of jobs after the first four that repeat a job
	hitMinBack = 4   // a repeated job finished at least this many jobs earlier
	hitWindow  = 16  // ... and is one of the client's last hitWindow such misses
	refsPerCl  = 8   // jobs per client compared byte for byte with local runs (2 at the small size)
	jobN       = 48  // clique size of every job template

	// Every daemon remembers this many jobs and keeps this many results in
	// memory. A pass outgrows both within seconds, so memory sits at the
	// steady state of a long-running daemon instead of growing with the
	// number of jobs a pass completes. A hit repeats one of its client's
	// last hitWindow misses, which are still among the cached results.
	retainJobs   = 64
	cacheEntries = 128
)

// jobTemplates are the compare-small campaign's entry scenarios, with the
// campaign's model defaults applied, plus matching on the coloring entry's
// graph: mis, coloring, bfs and matching at n≈48.
func jobTemplates(root string) ([]scenario.Scenario, error) {
	sp, err := campaign.Load(filepath.Join(root, "campaigns", "compare-small.json"))
	if err != nil {
		return nil, err
	}
	var out []scenario.Scenario
	for _, e := range sp.Entries {
		if e.Scenario == nil {
			return nil, fmt.Errorf("compare-small: entry %q has no inline scenario", e.Name)
		}
		s := *e.Scenario
		if sp.Model != nil && s.Model.MaxRounds == 0 {
			s.Model.MaxRounds = sp.Model.MaxRounds
		}
		out = append(out, s)
		if s.Algo == "coloring" {
			m := s
			m.Algo = "matching"
			out = append(out, m)
		}
	}
	return out, nil
}

// job is one generated submission. A hit repeats the client's earlier job of;
// a miss is a scenario no client has submitted before.
type job struct {
	sc   scenario.Scenario
	body []byte
	hit  bool
	of   int
}

// jobGen generates one client's job sequence from the seed. Job j depends
// only on the seed, the client and j, so a pass of any length replays the
// same prefix.
type jobGen struct {
	templates []scenario.Scenario
	seedBase  int64
	rng       *rand.Rand
	jobs      []job
	misses    []int
}

func newJobGen(templates []scenario.Scenario, seed int64, client int) *jobGen {
	return &jobGen{
		templates: templates,
		seedBase:  seedBase(seed, client),
		rng:       rand.New(rand.NewPCG(uint64(seed), uint64(client)+1)),
	}
}

// seedBase gives every client its own range of job seeds, so no two clients
// ever submit the same scenario.
func seedBase(seed int64, client int) int64 {
	return seed*1_000_000 + int64(client)*100_000
}

// distinct returns template t with seed s, a scenario whose canonical hash no
// other seed shares. Like a campaign or `nccrun -remote` submission it leaves
// the worker count to the daemon, so jobs take the daemon's default-worker
// admission path.
func distinct(t scenario.Scenario, s int64) job {
	t.Model.Seed, t.Graph.Seed = s, s
	body, err := json.Marshal(t)
	if err != nil {
		panic(err) // scenarios built from decoded JSON always marshal
	}
	return job{sc: t, body: body}
}

func (g *jobGen) job(j int) job {
	for len(g.jobs) <= j {
		i := len(g.jobs)
		var eligible int
		for eligible < len(g.misses) && g.misses[eligible] <= i-hitMinBack {
			eligible++
		}
		if eligible > 0 && g.rng.Float64() < hitShare {
			lo := max(0, eligible-hitWindow)
			of := g.misses[lo+g.rng.IntN(eligible-lo)]
			jb := g.jobs[of]
			jb.hit, jb.of = true, of
			g.jobs = append(g.jobs, jb)
			continue
		}
		t := g.templates[g.rng.IntN(len(g.templates))]
		g.misses = append(g.misses, i)
		g.jobs = append(g.jobs, distinct(t, g.seedBase+int64(i)))
	}
	return g.jobs[j]
}

// jobTiming splits one job's latency at the client.
type jobTiming struct {
	hit                        bool
	totalMs, submitMs, firstMs float64 // firstMs: submit response to the first line
}

// serviceInstance is an nccd (or a coordinator with its workers) on loopback,
// driven by closed-loop clients each running its own job sequence.
type serviceInstance struct {
	clients   int
	templates []scenario.Scenario
	seedBase  int64 // seeds of jobs outside the clients' sequences
	gens      []*jobGen
	refs      map[[2]int][]byte // (client, job) -> local scenario.Run NDJSON
	refRuns   []scenario.Scenario
	front     string   // URL clients submit to
	l5        []string // URLs of the executing daemons (their /metrics)
	coord     bool
	http      *http.Client
	stop      func()

	mu      sync.Mutex
	bodies  []map[int][]byte // per client: miss job -> streamed NDJSON
	timings []jobTiming
	refused int
	// /metrics of every daemon at the start of the traced pass.
	before    map[string]float64
	beforeErr error
}

// newServiceInstance generates the job sequences and the local references:
// the first refsPerCl misses of every client, run with scenario.Run.
func newServiceInstance(cfg runConfig, clients int) (*serviceInstance, error) {
	templates, err := jobTemplates(cfg.root)
	if err != nil {
		return nil, err
	}
	si := &serviceInstance{
		clients:   clients,
		templates: templates,
		seedBase:  seedBase(cfg.seed, clients),
		refs:      map[[2]int][]byte{},
		http:      &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}},
		bodies:    make([]map[int][]byte, clients),
	}
	refs := refsPerCl
	if cfg.small {
		refs = 2
	}
	for c := 0; c < clients; c++ {
		g := newJobGen(templates, cfg.seed, c)
		si.gens = append(si.gens, g)
		si.bodies[c] = map[int][]byte{}
		for j, found := 0, 0; found < refs; j++ {
			jb := g.job(j)
			if jb.hit {
				continue
			}
			found++
			ref, err := localNDJSON(jb.sc)
			if err != nil {
				return nil, err
			}
			si.refs[[2]int{c, j}] = ref
			si.refRuns = append(si.refRuns, jb.sc)
		}
	}
	return si, nil
}

// localNDJSON is what `nccrun -json` prints for the scenario.
func localNDJSON(sc scenario.Scenario) ([]byte, error) {
	var buf bytes.Buffer
	for _, rec := range scenario.Run(sc) {
		line, err := json.Marshal(rec)
		if err != nil {
			return nil, fmt.Errorf("encoding local record: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// startNccd starts one in-process nccd on loopback with a fresh disk cache.
func startNccd(cfg service.Config, coordinator bool) (url string, stop func(), err error) {
	dir, err := os.MkdirTemp("", "nccd-cache-")
	if err != nil {
		return "", nil, err
	}
	cfg.CacheDir, cfg.RetainJobs, cfg.CacheEntries = dir, retainJobs, cacheEntries
	newServer := service.New
	if coordinator {
		newServer = service.NewCoordinator
	}
	svc, err := newServer(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	ts := httptest.NewServer(svc.Handler())
	return ts.URL, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Drain(ctx) // a pass leaves no job behind; a timeout only cancels leftovers
		ts.Close()
		os.RemoveAll(dir)
	}, nil
}

// setupNccd: one nccd with the daemon's defaults (Executors 2, WorkerBudget
// GOMAXPROCS) behind two clients.
func setupNccd(cfg runConfig) (instance, error) {
	si, err := newServiceInstance(cfg, 2)
	if err != nil {
		return nil, err
	}
	url, stop, err := startNccd(service.Config{}, false)
	if err != nil {
		return nil, err
	}
	si.front, si.l5, si.stop = url, []string{url}, stop
	return si.warmUp()
}

// setupCluster: a coordinator and two workers (Executors 1, WorkerBudget 1)
// joined through service.Joiner, behind two clients.
func setupCluster(cfg runConfig) (instance, error) {
	si, err := newServiceInstance(cfg, 2)
	if err != nil {
		return nil, err
	}
	var stops []func()
	si.stop = func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	coord, stop, err := startNccd(service.Config{WorkerTTL: time.Minute}, true)
	if err != nil {
		return nil, err
	}
	stops = append(stops, stop)
	si.front, si.coord = coord, true
	ctx, cancel := context.WithCancel(context.Background())
	var joined sync.WaitGroup
	for i := 1; i <= 2; i++ {
		url, stop, err := startNccd(service.Config{Executors: 1, WorkerBudget: 1}, false)
		if err != nil {
			cancel()
			joined.Wait()
			si.stop()
			return nil, err
		}
		stops = append(stops, stop)
		si.l5 = append(si.l5, url)
		jn := &service.Joiner{Coordinator: coord, Self: url, Name: fmt.Sprintf("w%d", i), Capacity: 1, Interval: time.Second}
		joined.Add(1)
		go func() {
			defer joined.Done()
			jn.Run(ctx)
		}()
	}
	// Joiners deregister before the daemons drain.
	stops = append(stops, func() {
		cancel()
		joined.Wait()
	})
	if err := si.waitWorkers(2, 10*time.Second); err != nil {
		si.stop()
		return nil, err
	}
	return si.warmUp()
}

func (si *serviceInstance) waitWorkers(want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var list struct {
			Workers []service.WorkerInfo `json:"workers"`
		}
		resp, err := si.http.Get(si.front + "/v1/workers")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&list)
			resp.Body.Close()
		}
		if err == nil && len(list.Workers) >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d workers joined within %v (last error: %v)", len(list.Workers), want, timeout, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// warmUp runs one job outside every client's sequence and checks it; on
// failure it stops the daemons.
func (si *serviceInstance) warmUp() (instance, error) {
	jb := distinct(si.templates[0], si.seedBase+99_999)
	if s, _, _ := si.submit(si.front, jb, nil); s.fail != "" {
		si.close()
		return nil, fmt.Errorf("warm-up job: %s", s.fail)
	}
	return si, nil
}

func (si *serviceInstance) close() {
	si.stop()
	si.http.CloseIdleConnections()
}

func (si *serviceInstance) run(b budget, tr *tracer) passResult {
	if tr != nil {
		si.before, si.beforeErr = scrapeAll(si.http, si.allMetricURLs())
	}
	start := time.Now()
	out := make([][]sample, si.clients)
	var wg sync.WaitGroup
	for c := 0; c < si.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; b.more(c, j); j++ {
				out[c] = append(out[c], si.doJob(c, j, tr))
			}
		}()
	}
	wg.Wait()
	res := passResult{wall: time.Since(start)}
	for _, ss := range out {
		res.samples = append(res.samples, ss...)
	}
	return res
}

// doJob runs job j of client c and checks its stream: every record verified,
// a hit byte-identical to the miss it repeats, a reference job identical to
// the local run.
func (si *serviceInstance) doJob(c, j int, tr *tracer) sample {
	jb := si.gens[c].job(j)
	s, body, t := si.submit(si.front, jb, tr)
	s.client = c
	si.mu.Lock()
	defer si.mu.Unlock()
	if s.fail == "" {
		si.timings = append(si.timings, t)
		switch ref, isRef := si.refs[[2]int{c, j}]; {
		case jb.hit && !bytes.Equal(body, si.bodies[c][jb.of]):
			s.fail = fmt.Sprintf("client %d job %d: cache hit differs from the stream of job %d", c, j, jb.of)
		case isRef && !bytes.Equal(body, ref):
			s.fail = fmt.Sprintf("client %d job %d: stream differs from local scenario.Run output", c, j)
		case !jb.hit:
			si.bodies[c][j] = body
		}
	}
	return s
}

// submit POSTs one job to base and reads its record stream to EOF.
func (si *serviceInstance) submit(base string, jb job, tr *tracer) (sample, []byte, jobTiming) {
	name := opName(jb.sc)
	t0 := time.Now()
	resp, err := si.http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(jb.body))
	if err != nil {
		return sample{ms: msSince(t0), fail: fmt.Sprintf("%s: submit: %v", name, err)}, nil, jobTiming{}
	}
	infoBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	if err != nil {
		return sample{ms: msSince(t0), fail: fmt.Sprintf("%s: submit: %v", name, err)}, nil, jobTiming{}
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		si.mu.Lock()
		si.refused++
		si.mu.Unlock()
	}
	if resp.StatusCode != http.StatusCreated {
		return sample{ms: msSince(t0), fail: fmt.Sprintf("%s: submit: %s: %s", name, resp.Status, bytes.TrimSpace(infoBody))}, nil, jobTiming{}
	}
	var info service.JobInfo
	if err := json.Unmarshal(infoBody, &info); err != nil {
		return sample{ms: msSince(t0), fail: fmt.Sprintf("%s: decoding job info: %v", name, err)}, nil, jobTiming{}
	}

	resp, err = si.http.Get(base + "/v1/jobs/" + info.ID + "/records")
	if err != nil {
		return sample{ms: msSince(t0), fail: fmt.Sprintf("%s: records: %v", name, err)}, nil, jobTiming{}
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	var tFirst time.Time
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 && tFirst.IsZero() {
			tFirst = time.Now()
		}
		body.Write(line)
		if err == io.EOF {
			break
		}
		if err != nil {
			return sample{ms: msSince(t0), fail: fmt.Sprintf("%s: records: %v", name, err)}, nil, jobTiming{}
		}
	}
	end := time.Now()
	ms := float64(end.Sub(t0).Nanoseconds()) / 1e6

	s := sample{ms: ms, hit: info.Cached}
	lines := bytes.Split(bytes.TrimSuffix(body.Bytes(), []byte{'\n'}), []byte{'\n'})
	if resp.StatusCode != http.StatusOK || body.Len() == 0 {
		s.fail = fmt.Sprintf("%s: records: %s with %d bytes", name, resp.Status, body.Len())
	}
	for _, line := range lines {
		if s.fail != "" {
			break
		}
		var rec scenario.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			s.fail = fmt.Sprintf("%s: decoding record: %v", name, err)
			break
		}
		r := recordSample(jb.sc, rec, nil, ms)
		s.fail = r.fail
		s.rounds += r.rounds
		s.msgs += r.msgs
		s.nodeRounds += r.nodeRounds
	}
	if s.fail == "" && info.Cached != jb.hit {
		s.fail = fmt.Sprintf("%s: cached=%v, the generated mix says %v", name, info.Cached, jb.hit)
	}
	t := jobTiming{hit: info.Cached, totalMs: ms, submitMs: float64(t1.Sub(t0).Nanoseconds()) / 1e6}
	if !tFirst.IsZero() {
		t.firstMs = float64(tFirst.Sub(t1).Nanoseconds()) / 1e6
	}
	if tr != nil {
		req := tr.newReq()
		layer := "service.job"
		if si.coord && base == si.front {
			layer = "coord.job"
		}
		attrs := map[string]float64{"cached": 0}
		if info.Cached {
			attrs["cached"] = 1
		} else {
			attrs["node_rounds"] = float64(s.nodeRounds)
		}
		root := tr.add(req, 0, layer, t0, end, attrs)
		tr.add(req, root, "http.submit", t0, t1, nil)
		tr.add(req, root, "http.stream", t1, end, nil)
	}
	return s, body.Bytes(), t
}

func (si *serviceInstance) allMetricURLs() []string {
	if si.coord {
		return append([]string{si.front}, si.l5...)
	}
	return si.l5
}

// layers computes the service metrics of the traced pass from the client's
// timings and the daemons' /metrics deltas, then runs the local scenario
// layer on the reference jobs and, on a cluster, a direct-to-worker pass.
func (si *serviceInstance) layers(tr *tracer, traced passResult) error {
	if si.beforeErr != nil {
		return si.beforeErr
	}
	after, err := scrapeAll(si.http, si.allMetricURLs())
	if err != nil {
		return err
	}
	delta := func(url, series string) float64 { return after[url+" "+series] - si.before[url+" "+series] }
	v := tr.values

	var missMs, hitMs, submitMs, firstMs, tailMs, hitSubmitMs []float64
	for _, t := range si.timings {
		if t.hit {
			hitMs = append(hitMs, t.totalMs)
			hitSubmitMs = append(hitSubmitMs, t.submitMs)
			continue
		}
		missMs = append(missMs, t.totalMs)
		submitMs = append(submitMs, t.submitMs)
		firstMs = append(firstMs, t.firstMs)
		tailMs = append(tailMs, t.totalMs-t.submitMs-t.firstMs)
	}
	missP50 := quantile(missMs, 0.5)
	v["service.miss_p50_ms"] = missP50
	v["service.miss_p95_ms"] = quantile(missMs, 0.95)
	v["service.hit_p50_ms"] = quantile(hitMs, 0.5)
	v["service.hit_p95_ms"] = quantile(hitMs, 0.95)
	v["service.submit_ms_p50"] = quantile(submitMs, 0.5)
	v["service.first_line_ms_p50"] = quantile(firstMs, 0.5)
	v["service.tail_ms_p50"] = quantile(tailMs, 0.5)
	v["service.hit_submit_ms_p50"] = quantile(hitSubmitMs, 0.5)

	var latSum, latCount float64
	for _, url := range si.l5 {
		latSum += delta(url, "nccd_job_latency_seconds_sum")
		latCount += delta(url, "nccd_job_latency_seconds_count")
	}
	v["service.job_latency_ms_mean"] = ratio(latSum, latCount) * 1e3
	v["service.http_overhead_ms"] = mean(missMs) - v["service.job_latency_ms_mean"]
	hits, misses := delta(si.front, "nccd_cache_hits_total"), delta(si.front, "nccd_cache_misses_total")
	v["service.cache_hit_ratio"] = ratio(hits, hits+misses)
	v["service.coalesced_total"] = delta(si.front, "nccd_jobs_coalesced_total")
	v["service.refused_frac"] = ratio(float64(si.refused), float64(len(traced.samples)))
	if si.coord {
		v["service.coord_dispatch_ms_mean"] = ratio(delta(si.front, "nccd_dispatch_latency_seconds_sum"), delta(si.front, "nccd_dispatch_latency_seconds_count")) * 1e3
		v["service.coord_dispatch_cache_hits"] = delta(si.front, "nccd_dispatch_cache_hits_total")
	}

	// L4: the reference jobs run locally through the scenario layer.
	runoneMs := make([]float64, 0, len(si.refRuns))
	for _, sc := range si.refRuns {
		s := tr.runScenario(sc)
		if s.fail != "" {
			return fmt.Errorf("local reference run: %s", s.fail)
		}
		runoneMs = append(runoneMs, s.ms)
	}
	tr.engineMetrics()
	tr.scenarioMetrics()
	l5P50 := missP50
	if si.coord {
		// L5 under the coordinator: the same kind of jobs sent straight to a
		// worker, one at a time.
		var direct []float64
		for j := range si.refRuns {
			jb := distinct(si.templates[j%len(si.templates)], si.seedBase+int64(j))
			s, _, _ := si.submit(si.l5[0], jb, tr)
			if s.fail != "" {
				return fmt.Errorf("direct worker job: %s", s.fail)
			}
			direct = append(direct, s.ms)
		}
		l5P50 = quantile(direct, 0.5)
		v["service.l6_over_l5"] = ratio(missP50, l5P50)
	}
	v["service.l5_over_l4"] = ratio(l5P50, quantile(runoneMs, 0.5))
	return calibrate(tr, jobN, si.refRuns)
}

// scrapeAll reads the Prometheus text of every URL's /metrics into one map
// keyed "URL series".
func scrapeAll(c *http.Client, urls []string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, url := range urls {
		resp, err := c.Get(url + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("scraping %s/metrics: %w", url, err)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[url+" "+line[:i]] = v
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("scraping %s/metrics: %w", url, err)
		}
	}
	return out, nil
}
