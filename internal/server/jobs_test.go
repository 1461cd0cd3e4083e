package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
)

// TestJobsEndpoint drives a background decomposition over HTTP and
// follows it through the jobs API: the 202 response carries the job
// id, polling the job shows progress until done, and the dataset JSON
// reports the deterministic memory breakdown.
func TestJobsEndpoint(t *testing.T) {
	eng := engine.New()
	if err := eng.Register("d", gen.Zipf(200, 200, 20000, 1.3, 1.3, 7)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng).Handler())
	defer ts.Close()

	st, _, body := doRaw(t, http.MethodPost, ts.URL+"/v1/datasets/d/decompose", "application/json", `{"algorithm":"bu++"}`)
	if st != http.StatusAccepted {
		t.Fatalf("background decompose: status %d, body %s", st, body)
	}
	var ds datasetJSON
	if err := json.Unmarshal(body, &ds); err != nil {
		t.Fatal(err)
	}
	if ds.JobID <= 0 {
		t.Fatalf("202 response carries no job id: %s", body)
	}

	jobURL := fmt.Sprintf("%s/v1/datasets/d/jobs/%d", ts.URL, ds.JobID)
	var last jobJSON
	sawRunning := false
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, _, body = doRaw(t, http.MethodGet, jobURL, "", "")
		if st != http.StatusOK {
			t.Fatalf("GET job: status %d, body %s", st, body)
		}
		if err := json.Unmarshal(body, &last); err != nil {
			t.Fatal(err)
		}
		if last.ID != ds.JobID || last.Dataset != "d" || last.Algo != "BiT-BU++" {
			t.Fatalf("job payload %+v", last)
		}
		if last.Done < 0 || (last.Total > 0 && last.Done > last.Total) {
			t.Fatalf("implausible counters %d/%d", last.Done, last.Total)
		}
		if last.Percent < 0 || last.Percent > 100 {
			t.Fatalf("percent %v outside [0, 100]", last.Percent)
		}
		if last.State == "running" {
			sawRunning = true
		}
		if last.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished; last %+v", last)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if last.Percent != 100 || last.Stage != "done" || last.Done != last.Total || last.Total == 0 {
		t.Fatalf("terminal job %+v, want stage done at 100%%", last)
	}
	if !sawRunning {
		t.Log("decomposition outran the first poll; mid-run state not exercised this run")
	}

	// The jobs listing shows the same run.
	st, _, body = doRaw(t, http.MethodGet, ts.URL+"/v1/datasets/d/jobs", "", "")
	if st != http.StatusOK {
		t.Fatalf("GET jobs: status %d", st)
	}
	var list struct {
		Dataset string    `json:"dataset"`
		Jobs    []jobJSON `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if list.Dataset != "d" || len(list.Jobs) != 1 || list.Jobs[0].ID != ds.JobID {
		t.Fatalf("jobs listing %+v, want the one job", list)
	}

	// The ready dataset carries job_id and a coherent memory object.
	st, _, body = doRaw(t, http.MethodGet, ts.URL+"/v1/datasets/d", "", "")
	if st != http.StatusOK {
		t.Fatalf("GET dataset: status %d", st)
	}
	if err := json.Unmarshal(body, &ds); err != nil {
		t.Fatal(err)
	}
	if ds.JobID != last.ID {
		t.Fatalf("dataset job_id %d, want %d", ds.JobID, last.ID)
	}
	mem := ds.Memory
	if mem.GraphBytes <= 0 || mem.ResultBytes <= 0 || mem.IndexBytes <= 0 {
		t.Fatalf("memory breakdown has zero component: %+v", mem)
	}
	if mem.TotalBytes != mem.GraphBytes+mem.ResultBytes+mem.IndexBytes || mem.BytesPerEdge <= 0 {
		t.Fatalf("incoherent memory object %+v", mem)
	}
}

// TestJobsEndpointErrors covers the failure surface: unknown job ids
// are not_found in the v1 envelope, malformed ids are bad_request, and
// the jobs routes exist only under /v1.
func TestJobsEndpointErrors(t *testing.T) {
	eng := engine.New()
	if err := eng.Register("d", gen.Uniform(10, 10, 30, 1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng).Handler())
	defer ts.Close()

	st, _, body := doRaw(t, http.MethodGet, ts.URL+"/v1/datasets/d/jobs/42", "", "")
	if st != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, body %s", st, body)
	}
	if env := decodeEnvelope(t, body); env.Code != "not_found" {
		t.Fatalf("unknown job code %q, want not_found", env.Code)
	}

	st, _, body = doRaw(t, http.MethodGet, ts.URL+"/v1/datasets/nope/jobs", "", "")
	if st != http.StatusNotFound {
		t.Fatalf("unknown dataset jobs: status %d, body %s", st, body)
	}

	st, _, body = doRaw(t, http.MethodGet, ts.URL+"/v1/datasets/d/jobs/abc", "", "")
	if st != http.StatusBadRequest {
		t.Fatalf("malformed id: status %d, body %s", st, body)
	}
	if env := decodeEnvelope(t, body); env.Code != "bad_request" {
		t.Fatalf("malformed id code %q, want bad_request", env.Code)
	}

	// v1-only: an unversioned jobs path is not a route.
	if st, _, _ := doRaw(t, http.MethodGet, ts.URL+"/datasets/d/jobs", "", ""); st != http.StatusNotFound {
		t.Fatalf("unversioned jobs path: status %d, want 404", st)
	}
}
