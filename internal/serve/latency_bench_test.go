package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/serve/api"
	"repro/internal/serve/queue"
)

// BenchmarkServeSubmitToFirstEpoch measures the user-visible job-start
// latency: POST /v1/jobs until the status endpoint reports the first epoch
// complete. Poll granularity (1 ms) is included deliberately — it is part
// of what a polling client observes. Reports p50/p95 across iterations.
func BenchmarkServeSubmitToFirstEpoch(b *testing.B) {
	ts, _ := newTestServer(b, queue.Config{MaxQueuedPerTenant: 1024}, nil)
	samples := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		code, body := doJSON(b, http.MethodPost, ts.URL+"/v1/jobs", tinySpec(1, uint64(i+1)))
		if code != http.StatusCreated {
			b.Fatalf("submit: %d %s", code, body)
		}
		var j api.Job
		if err := json.Unmarshal(body, &j); err != nil {
			b.Fatal(err)
		}
		for {
			cur := getJob(b, ts.URL, j.ID)
			if cur.Progress.Epoch >= 1 || cur.State.Terminal() {
				break
			}
			time.Sleep(time.Millisecond)
		}
		samples = append(samples, float64(time.Since(start).Nanoseconds()))
		waitState(b, ts.URL, j.ID, api.StateDone)
	}
	b.StopTimer()
	sort.Float64s(samples)
	b.ReportMetric(quantile(samples, 0.50), "p50-ns")
	b.ReportMetric(quantile(samples, 0.95), "p95-ns")
}

// BenchmarkServeFourJobThroughput drives the acceptance scenario as a
// steady-state measurement: 4 concurrent tiny jobs against the 2-token
// pool, reporting completed jobs per second.
func BenchmarkServeFourJobThroughput(b *testing.B) {
	ts, r := newTestServer(b, queue.Config{MaxQueuedPerTenant: 1024}, nil)
	const fleet = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for k := 0; k < fleet; k++ {
			wg.Add(1)
			// Everything in here must use b.Error, never b.Fatal: this is
			// not the benchmark goroutine.
			go func(seed uint64) {
				defer wg.Done()
				body, err := json.Marshal(tinySpec(1, seed))
				if err != nil {
					b.Error(err)
					return
				}
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Error(err)
					return
				}
				var j api.Job
				err = json.NewDecoder(resp.Body).Decode(&j)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusCreated {
					b.Errorf("submit: %d (%v)", resp.StatusCode, err)
					return
				}
				pollDone(b, ts.URL, j.ID)
			}(uint64(i*fleet + k + 1))
		}
		wg.Wait()
	}
	b.StopTimer()
	if hw := r.MaxRunning(); hw != 2 {
		b.Fatalf("maxRunning = %d, want 2", hw)
	}
	b.ReportMetric(float64(fleet)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// pollDone polls a job to StateDone; goroutine-safe (b.Error only).
func pollDone(b *testing.B, base, id string) {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			b.Error(err)
			return
		}
		var j api.Job
		err = json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		if err != nil {
			b.Error(err)
			return
		}
		switch {
		case j.State == api.StateDone:
			return
		case j.State.Terminal():
			b.Errorf("job %s ended %s (%s)", id, j.State, j.Error)
			return
		}
		time.Sleep(time.Millisecond)
	}
	b.Errorf("job %s timed out", id)
}

// quantile returns the q-th quantile of sorted samples (nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}
