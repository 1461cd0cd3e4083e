// Package client is the typed Go client of the bitserved v1 API. It
// covers the full resource-oriented surface — dataset lifecycle,
// decomposition, incremental mutation, φ/support/community queries,
// cursor pagination and the batch lookup endpoint — with context
// support on every call, bounded retry on 503/transport failures for
// idempotent requests, and version-pinned reads for
// read-your-writes consistency against the engine's snapshot model.
//
// Quick start:
//
//	c := client.New("http://127.0.0.1:8080")
//	ds := c.Dataset("dblp")
//	res, err := ds.Mutate(ctx, client.MutateRequest{Insert: [][2]int{{7, 3}}, Wait: true})
//	// ds is now pinned to res.Version: subsequent reads through ds
//	// never answer from an older snapshot.
//	phi, err := ds.Phi(ctx, 7, 3)
//
// Failures decode into *APIError carrying the server's stable error
// code (client.CodeDatasetNotFound, ...), message and HTTP status;
// errors.As and the IsNotFound/IsConflict/IsUnavailable helpers branch
// on them without string matching.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Client talks to one bitserved instance. It is safe for concurrent
// use; create dataset handles with Dataset.
type Client struct {
	base    string
	http    *http.Client
	retries int
	backoff time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient overrides the underlying *http.Client (tests inject
// httptest clients; production tunes transports).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// WithRetry tunes the retry policy for idempotent requests: up to n
// extra attempts after a transport failure or a 503, with linear
// backoff between attempts. WithRetry(0, 0) disables retries.
func WithRetry(n int, backoff time.Duration) Option {
	return func(c *Client) { c.retries, c.backoff = n, backoff }
}

// New returns a client for the server at baseURL (e.g.
// "http://127.0.0.1:8080"). The default policy retries idempotent
// requests twice on 503 or transport failure with 50ms backoff.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimSuffix(baseURL, "/"),
		http:    &http.Client{Timeout: 30 * time.Second},
		retries: 2,
		backoff: 50 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// do issues one request (with retries when idempotent), decodes a
// success body into out (when non-nil) and failure bodies into
// *APIError.
func (c *Client) do(ctx context.Context, method, path string, query url.Values, body, out any) error {
	var encoded []byte
	if body != nil {
		var err error
		if encoded, err = json.Marshal(body); err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
	}
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	// The batch endpoint is a read behind a POST; it retries like a GET.
	// The method check matters: DELETE of a dataset named "query" must
	// not be classified as retryable.
	idempotent := method == http.MethodGet ||
		(method == http.MethodPost && strings.HasSuffix(path, "/query"))
	attempts := 1
	if idempotent {
		attempts += c.retries
	}
	var lastErr error
	// retryIn carries the server's Retry-After hint from one attempt to
	// the next; 0 falls back to linear backoff.
	var retryIn time.Duration
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			wait := retryIn
			if wait == 0 {
				wait = time.Duration(attempt) * c.backoff
			}
			retryIn = 0
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
		}
		var rd io.Reader
		if encoded != nil {
			rd = bytes.NewReader(encoded)
		}
		req, err := http.NewRequestWithContext(ctx, method, u, rd)
		if err != nil {
			return fmt.Errorf("client: %w", err)
		}
		if encoded != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		req.Header.Set("Accept", "application/json")
		resp, err := c.http.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = fmt.Errorf("client: %s %s: %w", method, path, err)
			continue // transport failure: retry when idempotent
		}
		apiErr, decodeErr := consume(resp, out)
		switch {
		case decodeErr != nil:
			return fmt.Errorf("client: %s %s: %w", method, path, decodeErr)
		case apiErr == nil:
			return nil
		case apiErr.StatusCode == http.StatusServiceUnavailable:
			lastErr = apiErr
			// 503: the server is draining or a dataset is recovering;
			// retry when idempotent, pacing by the server's Retry-After
			// hint (capped — a hint must never park a request for longer
			// than the client's own policy would tolerate).
			if retryIn = apiErr.RetryAfter; retryIn > maxRetryAfter {
				retryIn = maxRetryAfter
			}
			continue
		default:
			return apiErr
		}
	}
	return lastErr
}

// consume reads one response to completion: 2xx decodes into out,
// anything else into an *APIError (the v1 envelope, or the raw body
// when a proxy in between answered instead).
func consume(resp *http.Response, out any) (*APIError, error) {
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out == nil {
			return nil, nil
		}
		if err := json.Unmarshal(data, out); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrMalformedResponse, err)
		}
		return nil, nil
	}
	ae := decodeAPIError(resp.StatusCode, data)
	ae.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
	return ae, nil
}

// maxRetryAfter caps how long the retry loop sleeps on a server's
// Retry-After hint.
const maxRetryAfter = 5 * time.Second

// get is a typed GET against a dataset-scoped path.
func (c *Client) get(ctx context.Context, path string, query url.Values, out any) error {
	return c.do(ctx, http.MethodGet, path, query, nil, out)
}

// Health probes GET /v1/healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.get(ctx, "/v1/healthz", nil, nil)
}

// Datasets lists every registered dataset with its status.
func (c *Client) Datasets(ctx context.Context) ([]Dataset, error) {
	var out []Dataset
	if err := c.get(ctx, "/v1/datasets", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// CreateDataset registers a dataset from a server-side file path or an
// inline edge list and returns its initial status.
func (c *Client) CreateDataset(ctx context.Context, req CreateDatasetRequest) (Dataset, error) {
	var out Dataset
	if err := c.do(ctx, http.MethodPost, "/v1/datasets", nil, req, &out); err != nil {
		return Dataset{}, err
	}
	return out, nil
}

// Dataset returns a handle scoped to one dataset. Handles are cheap
// and safe for concurrent use; reads through a handle enforce its
// version pin (see PinVersion).
func (c *Client) Dataset(name string) *DatasetClient {
	return &DatasetClient{c: c, name: name, path: "/v1/datasets/" + url.PathEscape(name)}
}

// DatasetClient scopes calls to one dataset.
//
// The handle tracks a minimum snapshot version: Mutate with Wait (and
// Decompose with Wait) advance it automatically, and PinVersion sets it
// explicitly. Reads whose response reports an older version — possible
// when a load balancer fans requests over replicas, or right after a
// waited mutation raced a concurrent snapshot swap — are retried
// briefly and then fail with ErrStaleRead, so a handle never silently
// travels back in time.
type DatasetClient struct {
	c    *Client
	name string
	path string
	pin  atomic.Int64 // minimum acceptable snapshot version; 0 = unpinned
}

// Name returns the dataset name the handle is scoped to.
func (d *DatasetClient) Name() string { return d.name }

// PinVersion requires subsequent reads through this handle to answer
// from snapshot version v or newer. Pins only ratchet forward; calls
// with an older version than the current pin are no-ops.
func (d *DatasetClient) PinVersion(v int64) {
	for {
		cur := d.pin.Load()
		if v <= cur || d.pin.CompareAndSwap(cur, v) {
			return
		}
	}
}

// PinnedVersion reports the handle's current minimum read version
// (0 = unpinned).
func (d *DatasetClient) PinnedVersion() int64 { return d.pin.Load() }

// ErrStaleRead reports that a read could not be satisfied at the
// handle's pinned version within the retry budget.
var ErrStaleRead = errors.New("client: response version behind the pinned version")

// staleRetries bounds how often a pinned read re-fetches before
// giving up. The served version only moves forward, so a few retries
// bridge the instant between a waited mutation ack and the swap
// becoming visible to a different connection.
const staleRetries = 20

// pinned runs fetch until its reported snapshot version satisfies the
// handle's pin, with bounded backoff between stale attempts. fetch
// must decode into a fresh value per call — re-decoding into a reused
// struct would let omitempty fields of a stale attempt (a next_cursor,
// a pointer result) survive into the final answer. It is the single
// pin-enforcement protocol shared by every versioned read (GETs and
// the batch POST).
func (d *DatasetClient) pinned(ctx context.Context, fetch func() (int64, error)) error {
	min := d.pin.Load()
	for attempt := 0; ; attempt++ {
		got, err := fetch()
		if err != nil {
			return err
		}
		if got >= min {
			d.PinVersion(got) // reads ratchet too: no later read may regress
			return nil
		}
		if attempt >= staleRetries {
			return fmt.Errorf("%w: got %d, pinned %d", ErrStaleRead, got, min)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Duration(attempt+1) * 5 * time.Millisecond):
		}
	}
}

// pinnedGet issues a GET whose response carries a snapshot version,
// re-fetching (into a fresh value each attempt) while the response is
// older than the handle's pin.
func pinnedGet[T any, PT interface {
	*T
	versioned
}](ctx context.Context, d *DatasetClient, path string, query url.Values) (T, error) {
	var out T
	err := d.pinned(ctx, func() (int64, error) {
		out = *new(T)
		if err := d.c.get(ctx, path, query, PT(&out)); err != nil {
			return 0, err
		}
		return PT(&out).version(), nil
	})
	if err != nil {
		var zero T
		return zero, err
	}
	return out, nil
}

// Get returns the dataset's status row.
func (d *DatasetClient) Get(ctx context.Context) (Dataset, error) {
	var out Dataset
	if err := d.c.get(ctx, d.path, nil, &out); err != nil {
		return Dataset{}, err
	}
	return out, nil
}

// Delete unregisters the dataset, cancelling in-flight work.
func (d *DatasetClient) Delete(ctx context.Context) error {
	return d.c.do(ctx, http.MethodDelete, d.path, nil, nil, nil)
}

// Decompose starts (or, with Wait, runs to completion) a decomposition.
func (d *DatasetClient) Decompose(ctx context.Context, req DecomposeRequest) (Dataset, error) {
	var out Dataset
	if err := d.c.do(ctx, http.MethodPost, d.path+"/decompose", nil, req, &out); err != nil {
		return Dataset{}, err
	}
	if req.Wait {
		d.PinVersion(out.Version)
	}
	return out, nil
}

// Job reads the live progress of one decomposition job (obtained from
// Dataset.JobID of a Decompose response). Polling it while the job
// runs observes Done/Percent advancing; retention is bounded, so very
// old ids answer CodeNotFound.
func (d *DatasetClient) Job(ctx context.Context, id int64) (JobInfo, error) {
	var out JobInfo
	if err := d.c.get(ctx, d.path+"/jobs/"+strconv.FormatInt(id, 10), nil, &out); err != nil {
		return JobInfo{}, err
	}
	return out, nil
}

// Jobs lists the dataset's retained decomposition jobs, oldest first.
func (d *DatasetClient) Jobs(ctx context.Context) ([]JobInfo, error) {
	var out JobList
	if err := d.c.get(ctx, d.path+"/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// Mutate stages edge insertions/deletions. With Wait set the call
// returns after the batch is part of the served snapshot and pins the
// handle to the resulting version, so subsequent reads see the write.
func (d *DatasetClient) Mutate(ctx context.Context, req MutateRequest) (MutateResult, error) {
	var out MutateResult
	if err := d.c.do(ctx, http.MethodPost, d.path+"/edges", nil, req, &out); err != nil {
		return MutateResult{}, err
	}
	if req.Wait {
		d.PinVersion(out.Version)
	}
	return out, nil
}

// DeleteEdges is deletion-only sugar over the mutation path.
func (d *DatasetClient) DeleteEdges(ctx context.Context, edges [][2]int, wait bool) (MutateResult, error) {
	var out MutateResult
	req := struct {
		Edges [][2]int `json:"edges"`
		Wait  bool     `json:"wait,omitempty"`
	}{edges, wait}
	if err := d.c.do(ctx, http.MethodDelete, d.path+"/edges", nil, req, &out); err != nil {
		return MutateResult{}, err
	}
	if wait {
		d.PinVersion(out.Version)
	}
	return out, nil
}

// Version reports the served snapshot version, pending mutation count
// and last applied batch.
func (d *DatasetClient) Version(ctx context.Context) (VersionInfo, error) {
	var out VersionInfo
	if err := d.c.get(ctx, d.path+"/version", nil, &out); err != nil {
		return VersionInfo{}, err
	}
	return out, nil
}

// WaitReady polls until the dataset reports status "ready" (returning
// its row) or "failed" (returning the failure), bounded by ctx.
func (d *DatasetClient) WaitReady(ctx context.Context) (Dataset, error) {
	for {
		ds, err := d.Get(ctx)
		if err != nil {
			return Dataset{}, err
		}
		switch ds.Status {
		case "ready":
			return ds, nil
		case "failed":
			return ds, fmt.Errorf("client: decomposition of %q failed: %s", d.name, ds.Error)
		}
		select {
		case <-ctx.Done():
			return ds, ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// Phi returns the bitruss number of edge (u, v).
func (d *DatasetClient) Phi(ctx context.Context, u, v int) (EdgeResult, error) {
	return d.edgeQuery(ctx, "/phi", u, v)
}

// Support returns the butterfly support of edge (u, v); unlike φ it
// answers before any decomposition.
func (d *DatasetClient) Support(ctx context.Context, u, v int) (EdgeResult, error) {
	return d.edgeQuery(ctx, "/support", u, v)
}

func (d *DatasetClient) edgeQuery(ctx context.Context, ep string, u, v int) (EdgeResult, error) {
	q := url.Values{}
	q.Set("u", strconv.Itoa(u))
	q.Set("v", strconv.Itoa(v))
	return pinnedGet[EdgeResult](ctx, d, d.path+ep, q)
}

// Levels returns the populated bitruss levels, ascending.
func (d *DatasetClient) Levels(ctx context.Context) (LevelsResult, error) {
	return pinnedGet[LevelsResult](ctx, d, d.path+"/levels", nil)
}

// Communities returns one page of the k-bitruss community listing,
// ranked largest-first. Zero-value options request the server's
// default page size; follow NextCursor (or use CommunitiesAll) to walk
// the rest.
func (d *DatasetClient) Communities(ctx context.Context, k int64, opts CommunitiesOptions) (CommunitiesPage, error) {
	q := url.Values{}
	q.Set("k", strconv.FormatInt(k, 10))
	if opts.Top != 0 {
		q.Set("top", strconv.Itoa(opts.Top))
	}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	if opts.Cursor != "" {
		q.Set("cursor", opts.Cursor)
	}
	return pinnedGet[CommunitiesPage](ctx, d, d.path+"/communities", q)
}

// CommunitiesAll walks every page of the k-bitruss community listing
// (page size limit, 0 = server default) and returns the concatenated
// communities. The walk rejects pages from an older snapshot than the
// first page's version, so the result never mixes versions backwards.
func (d *DatasetClient) CommunitiesAll(ctx context.Context, k int64, limit int) ([]Community, error) {
	var all []Community
	opts := CommunitiesOptions{Limit: limit}
	for {
		page, err := d.Communities(ctx, k, opts)
		if err != nil {
			return nil, err
		}
		all = append(all, page.Communities...)
		if page.NextCursor == "" {
			return all, nil
		}
		opts.Cursor = page.NextCursor
	}
}

// CommunityOf resolves the community containing the given layer-local
// vertex at level k. Absence (the vertex has no edge at that level) is
// an *APIError with CodeNotFound; IsNotFound detects it.
func (d *DatasetClient) CommunityOf(ctx context.Context, layer Layer, vertex int, k int64) (CommunityOfResult, error) {
	q := url.Values{}
	q.Set("layer", string(layer))
	q.Set("vertex", strconv.Itoa(vertex))
	q.Set("k", strconv.FormatInt(k, 10))
	return pinnedGet[CommunityOfResult](ctx, d, d.path+"/community_of", q)
}

// KBitruss returns the edges of the k-bitruss with their φ values.
func (d *DatasetClient) KBitruss(ctx context.Context, k int64) (KBitrussResult, error) {
	q := url.Values{}
	q.Set("k", strconv.FormatInt(k, 10))
	return pinnedGet[KBitrussResult](ctx, d, d.path+"/kbitruss", q)
}

// Batch answers a mixed sequence of lookups from one snapshot in one
// round-trip. Build queries with BatchPhi/BatchSupport/BatchCommunityOf.
// Item failures surface per result (Result.Error), never as a call
// error. The whole batch is answered at one version ≥ the handle's pin.
func (d *DatasetClient) Batch(ctx context.Context, queries []BatchQuery) (BatchResult, error) {
	req := struct {
		Queries []BatchQuery `json:"queries"`
	}{queries}
	var out BatchResult
	err := d.pinned(ctx, func() (int64, error) {
		out = BatchResult{}
		if err := d.c.do(ctx, http.MethodPost, d.path+"/query", nil, req, &out); err != nil {
			return 0, err
		}
		return out.Version, nil
	})
	if err != nil {
		return BatchResult{}, err
	}
	return out, nil
}
