package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/serve/runner"
)

// pollEvery is how long a client waits between two status polls of its job.
const pollEvery = time.Millisecond

// journalFile is the runner's per-job lifecycle journal, measured on disk.
const journalFile = "state.journal"

// jobSample is what a client saw of one job. The breakdown fields are
// filled in the traced run only.
type jobSample struct {
	ok        bool
	latencyMs float64 // POST sent → result decoded

	submitMs, queueWaitMs, runMs, doneToResultMs float64
	firstEpochMs, trainMs                        float64
	polls                                        int
	statusUs                                     []float64
	journalBytes, artifactBytes                  int64
	torn                                         bool
	ckptDir                                      string
}

// serveClient is one closed-loop client: one tenant, one connection pool.
type serveClient struct {
	base   string
	http   *http.Client
	tenant string
	trace  bool
	spec   ServeSpec
}

// getJSON GETs path and decodes the body into v, returning the status code.
func (c *serveClient) getJSON(path string, v any) (int, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if v == nil {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(body, v)
}

// doJob submits one job, polls it to a terminal state and fetches its
// result once. Any refusal, error status, failed job or undecodable result
// makes the job a failed operation; fail says why.
func (c *serveClient) doJob(jobSeed uint64) (s jobSample, fail string) {
	body, err := json.Marshal(api.JobSpec{
		Tenant: c.tenant, Model: c.spec.Model, Optimizer: c.spec.Optimizer,
		Epochs: c.spec.Epochs, Classes: c.spec.Classes, Samples: c.spec.Samples,
		CheckpointEvery: 1, Seed: jobSeed,
	})
	if err != nil {
		return s, fmt.Sprintf("encode spec: %v", err)
	}
	t0 := time.Now()
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return s, fmt.Sprintf("submit: %v", err)
	}
	var view api.Job
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || err != nil {
		return s, fmt.Sprintf("submit: status %d, decode %v", resp.StatusCode, err)
	}
	s.submitMs = float64(time.Since(t0)) / 1e6

	for {
		tp := time.Now()
		if _, err := c.getJSON("/v1/jobs/"+view.ID, &view); err != nil {
			return s, fmt.Sprintf("poll %s: %v", view.ID, err)
		}
		s.polls++
		if c.trace {
			s.statusUs = append(s.statusUs, float64(time.Since(tp))/1e3)
		}
		if s.firstEpochMs == 0 && view.Progress.Epoch >= 1 {
			s.firstEpochMs = float64(time.Since(t0)) / 1e6
		}
		if view.State.Terminal() {
			break
		}
		time.Sleep(pollEvery)
	}
	tDone := time.Now()
	if view.State != api.StateDone {
		return s, fmt.Sprintf("job %s ended %s: %s", view.ID, view.State, view.Error)
	}
	if c.trace {
		// The artifact as another process would read it, at the moment
		// done became visible: a file that is missing or does not decode
		// here was published before it was persisted.
		b, err := os.ReadFile(view.Artifacts.Result)
		var onDisk api.Result
		s.torn = err != nil || json.Unmarshal(b, &onDisk) != nil
	}
	// One GET, no retry: a result that is not there once done was
	// observed is a failure, not a reason to ask again.
	var res api.Result
	if _, err := c.getJSON("/v1/jobs/"+view.ID+"/result", &res); err != nil {
		return s, fmt.Sprintf("result %s: %v", view.ID, err)
	}
	now := time.Now()
	s.latencyMs = float64(now.Sub(t0)) / 1e6
	s.doneToResultMs = float64(now.Sub(tDone)) / 1e6
	if len(res.Epochs) != c.spec.Epochs {
		return s, fmt.Sprintf("job %s ran %d of %d epochs", view.ID, len(res.Epochs), c.spec.Epochs)
	}
	if math.IsNaN(res.FinalLoss) || math.IsInf(res.FinalLoss, 0) {
		return s, fmt.Sprintf("job %s final loss is not finite", view.ID)
	}
	s.ok = true
	if c.trace {
		s.queueWaitMs = float64(view.StartedAt.Sub(view.CreatedAt)) / 1e6
		s.runMs = float64(view.FinishedAt.Sub(view.StartedAt)) / 1e6
		s.trainMs = res.Epochs[len(res.Epochs)-1].ElapsedS * 1e3
		s.ckptDir = view.Artifacts.Checkpoints
		s.journalBytes = fileSize(filepath.Join(view.Artifacts.Dir, journalFile))
		s.artifactBytes = dirSize(view.Artifacts.Dir)
	}
	return s, ""
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// dirSize adds up the regular files under dir.
func dirSize(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				total += fi.Size()
			}
		}
		return nil // a file that vanished mid-walk is not worth failing the run
	})
	return total
}

// serveRound is one boot of the server and one closed loop against it.
type serveRound struct {
	peakRSSMB float64 // the process's resident-set high-water mark over this round
	setup     time.Duration
	wall      time.Duration
	jobs      []jobSample
	listMs    []float64
	metricsMs []float64
	rejected  int
	failMsgs  []string
	attempted int
}

// runServeRound boots a real runner (journal and artifacts under dir)
// behind serve.New on an httptest server, runs the warm-up jobs, then lets
// the clients submit back to back for the given time. Load generation is
// closed-loop: a client sends its next job only after the previous result.
func runServeRound(spec ServeSpec, seed uint64, d time.Duration, dir string, trace bool) (*serveRound, error) {
	resetPeakRSS()
	t0 := time.Now()
	rn, err := runner.New(runner.Config{Dir: dir, Pool: sched.NewTokenPool(spec.Tokens)})
	if err != nil {
		return nil, fmt.Errorf("boot runner: %w", err)
	}
	srv := httptest.NewServer(serve.New(rn))
	clients := make([]*serveClient, spec.Clients)
	for i := range clients {
		clients[i] = &serveClient{base: srv.URL, http: &http.Client{Transport: &http.Transport{}},
			tenant: fmt.Sprintf("client-%d", i), trace: trace, spec: spec}
	}
	defer func() {
		for _, c := range clients {
			c.http.CloseIdleConnections()
		}
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = rn.Shutdown(ctx) // every job has ended; nothing is left to drain
	}()

	rd := &serveRound{}
	record := func(s jobSample, fail string) {
		rd.attempted++
		if fail != "" {
			rd.failMsgs = append(rd.failMsgs, fail)
			if !s.ok && s.submitMs == 0 {
				rd.rejected++
			}
		}
	}
	for i := 0; i < spec.Warmup; i++ {
		record(clients[0].doJob(seed*1_000_003 + uint64(i)))
	}
	rd.setup = time.Since(t0)

	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *serveClient) {
			defer wg.Done()
			// At least one job each, however short the round.
			for i := 0; i == 0 || time.Now().Before(deadline); i++ {
				jobSeed := seed*1_000_003 + uint64(1+ci)*100_003 + uint64(i)
				s, fail := c.doJob(jobSeed)
				var listMs, metricsMs float64
				if i%spec.ReadEvery == spec.ReadEvery-1 {
					// Reads beside the writes: the registry listing and
					// the metrics page.
					listMs = timeMs(func() { _, _ = c.getJSON("/v1/jobs", &api.JobList{}) })
					metricsMs = timeMs(func() { _, _ = c.getJSON("/metrics", nil) })
				}
				mu.Lock()
				record(s, fail)
				if s.ok {
					rd.jobs = append(rd.jobs, s)
				}
				if listMs > 0 {
					rd.listMs = append(rd.listMs, listMs)
					rd.metricsMs = append(rd.metricsMs, metricsMs)
				}
				mu.Unlock()
			}
		}(ci, c)
	}
	wg.Wait()
	rd.wall = time.Since(start)
	if rd.peakRSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	return rd, nil
}

// samplesPerJob is how many training samples one job consumes: the mlp
// workload builds 4·Samples vectors per class, keeps three quarters for
// training, and trains on whole batches of the default 32.
func (s ServeSpec) samplesPerJob() int {
	const batch = 32
	n := s.Classes * s.Samples * 4
	nTrain := n - int(float64(n)*0.25)
	return s.Epochs * (nTrain / batch) * batch
}

// RunServe measures the job-server workload: Rounds boots, each followed by
// a closed loop of Seconds/Rounds, the least disturbed round reported. With
// trace set it runs one round of half the time, takes every job apart into
// its phases, and adds the microbenches.
func RunServe(spec ServeSpec, o RunOpts, trace bool) (*Result, error) {
	r := newResult(spec.Name, trace)
	rounds, d := spec.Rounds, time.Duration(o.Seconds/float64(spec.Rounds)*float64(time.Second))
	if trace {
		rounds, d = 1, time.Duration(o.Seconds/2*float64(time.Second))
	}
	var all []*serveRound
	for i := 0; i < rounds; i++ {
		dir := filepath.Join(o.WorkDir, fmt.Sprintf("round%d", i))
		rd, err := runServeRound(spec, o.Seed+uint64(i), d, dir, trace)
		if err != nil {
			return nil, err
		}
		r.Attempted += rd.attempted
		for _, m := range rd.failMsgs {
			r.Fail("%s: %s", spec.Name, m)
		}
		if len(rd.jobs) == 0 {
			r.Fail("%s: round %d verified no job", spec.Name, i)
		}
		all = append(all, rd)
		if trace {
			if err := serveLayerMetrics(r, spec, o, rd); err != nil {
				return nil, err
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, fmt.Errorf("clean round: %w", err)
		}
	}
	if trace {
		kernelBenches(r, o.reps())
		controlBenches(r, o.reps())
		return r, nil
	}

	// The rounds do the same kind of work, and what other tenants of the
	// machine take from a round only ever slows it, so the round least
	// disturbed speaks for the run: the highest throughput, the lowest
	// median latency, the shortest set-up.
	var perS, p50, setups, peaks []float64
	jobs := 0
	for _, rd := range all {
		perS = append(perS, float64(len(rd.jobs)*spec.samplesPerJob())/rd.wall.Seconds())
		setups = append(setups, rd.setup.Seconds())
		peaks = append(peaks, rd.peakRSSMB)
		var latency []float64
		for _, j := range rd.jobs {
			latency = append(latency, j.latencyMs)
		}
		p50 = append(p50, Median(latency))
		jobs += len(rd.jobs)
	}
	r.Notes = append(r.Notes, fmt.Sprintf("samples/s by round: %.0f; peak RSS by round (MB): %.0f", perS, peaks))
	r.Set("samples_per_s", slices.Max(perS), len(perS))
	r.Set("latency_p50_ms", slices.Min(p50), jobs)
	r.Set("setup_s", slices.Min(setups), len(setups))
	r.Set("peak_rss_mb", Median(peaks), len(peaks))
	return r, nil
}

// serveLayerMetrics takes the traced round's jobs apart.
func serveLayerMetrics(r *Result, spec ServeSpec, o RunOpts, rd *serveRound) error {
	n := len(rd.jobs)
	if n == 0 {
		return nil
	}
	col := func(f func(jobSample) float64) []float64 {
		xs := make([]float64, n)
		for i, j := range rd.jobs {
			xs[i] = f(j)
		}
		return xs
	}
	latency := col(func(j jobSample) float64 { return j.latencyMs })
	r.Set("serve.jobs_per_s", float64(n)/rd.wall.Seconds(), n)
	r.Set("serve.job_latency_p50_ms", Median(latency), n)
	// A tail is reported only where ten samples lie beyond it: p95 needs
	// the benchmark's ≥ 200 jobs a round.
	if TailPercentile(n) >= 95 {
		r.Set("serve.job_latency_p95_ms", Percentile(latency, 95), n)
	}
	r.Set("serve.submit_ms", Median(col(func(j jobSample) float64 { return j.submitMs })), n)
	r.Set("serve.queue_wait_ms", Median(col(func(j jobSample) float64 { return j.queueWaitMs })), n)
	r.Set("serve.run_ms", Median(col(func(j jobSample) float64 { return j.runMs })), n)
	r.Set("serve.done_to_result_ms", Median(col(func(j jobSample) float64 { return j.doneToResultMs })), n)
	r.Set("serve.submit_to_first_epoch_ms", Median(col(func(j jobSample) float64 { return j.firstEpochMs })), n)
	r.Set("serve.polls_per_job", Median(col(func(j jobSample) float64 { return float64(j.polls) })), n)
	var statusUs []float64
	var torn int
	for _, j := range rd.jobs {
		statusUs = append(statusUs, j.statusUs...)
		if j.torn {
			torn++
		}
	}
	r.Set("serve.status_get_us", Median(statusUs), len(statusUs))
	r.Set("serve.list_get_ms", Median(rd.listMs), len(rd.listMs))
	r.Set("serve.metrics_get_ms", Median(rd.metricsMs), len(rd.metricsMs))
	r.Set("serve.rejected", float64(rd.rejected), rd.attempted)
	r.Set("serve_runner.result_file_torn", float64(torn), n)
	r.Set("serve_runner.journal_bytes_per_job", Median(col(func(j jobSample) float64 { return float64(j.journalBytes) })), n)
	r.Set("serve_runner.artifact_bytes_per_job", Median(col(func(j jobSample) float64 { return float64(j.artifactBytes) })), n)
	if err := ckptBench(r, rd.jobs[n-1].ckptDir, o.WorkDir, o.reps()); err != nil {
		return err
	}
	// The trainer's clock at the last epoch's end has run through every
	// earlier epoch's checkpoint; what is left after taking those out is
	// the job's training.
	saves := float64(spec.Epochs-1) * r.Samples["ckpt.save_ms"].Value
	r.Set("serve.train_share_pct", 100*Median(col(func(j jobSample) float64 {
		return math.Max(0, j.trainMs-saves) / j.latencyMs
	})), n)
	return nil
}
