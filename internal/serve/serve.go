// Package serve implements reorderd, the long-lived matrix-reordering
// service. The paper's Figure 9 shows reordering cost is amortized only
// when a permutation is computed once and reused across many SpMV/SpMM
// invocations; this service is that amortization made operational: a
// bounded worker pool computes permutations under per-request deadlines,
// a content-addressed job store (matrix digest × technique) dedups
// concurrent requests and makes every repeat request a hit, whether it
// arrives on the sync or the async path, and queue-depth / request-size
// load shedding keeps preprocessing latency under control (the concern
// Asudeh et al. and the BOBA line of work raise about reordering in
// production).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/reorder"
	"repro/internal/sparse"
)

// Config tunes the service. The zero value is usable: every field
// defaults to a production-reasonable setting in withDefaults.
type Config struct {
	// Workers is the reordering worker-pool size (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs admitted but not yet running; submissions
	// beyond it are shed with 429 (default 64).
	QueueDepth int
	// CacheEntries bounds each digest-keyed LRU: community-quality stats
	// and advisor features (default 256). Results live in the job store.
	CacheEntries int
	// MatrixCacheEntries bounds the generated-corpus matrix LRU (default 8).
	MatrixCacheEntries int
	// MaxBodyBytes bounds uploaded MatrixMarket bodies; larger uploads are
	// shed with 413 (default 64 MiB).
	MaxBodyBytes int64
	// MaxRows bounds the declared row count of uploaded matrices, applied
	// before any dimension-proportional allocation (default 1<<22).
	MaxRows int32
	// MaxEntries likewise bounds the declared entry count (default 1<<26).
	MaxEntries int
	// MaxJobTime caps both the client-requested deadline and the compute
	// budget of every job, counted from its creation (default 2m).
	MaxJobTime time.Duration
	// Preset selects the scale of corpus-referenced matrices (default Small).
	Preset gen.Preset
	// Resolver maps technique names to cancellable orderers (default
	// reorder.ByNameCtx). Tests inject synthetic techniques through it.
	Resolver func(name string) (reorder.OrdererCtx, error)
	// OrderWorkers is the intra-job parallelism handed to techniques that
	// implement reorder.ParallelOrderer (default 1, the sequential path).
	// It is independent of Workers, which bounds concurrent jobs; results
	// are byte-identical at any OrderWorkers value, so job IDs never key
	// on it.
	OrderWorkers int
	// Self is this peer's advertised base URL (e.g. "http://10.0.0.1:8377"),
	// required for sharding: peers compare ring owners against it and stamp
	// it into job responses. Empty disables sharding (single-node mode).
	Self string
	// Peers is the static full peer list for consistent-hash job sharding,
	// Self included (it is appended when missing). Order is irrelevant —
	// every peer sorts the list before building its ring, so all peers
	// agree on ownership. Empty (or Self empty) means single-node.
	Peers []string
	// StoreEntries bounds completed jobs, sync and async, retained by the
	// content-addressed job store (default 1024). Queued/running jobs are
	// never evicted.
	StoreEntries int
	// ForwardClient issues cross-peer forwards (default: a dedicated
	// http.Client; per-request deadlines come from the inbound request
	// context). Tests inject instrumented clients through it.
	ForwardClient *http.Client
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.MatrixCacheEntries <= 0 {
		c.MatrixCacheEntries = 8
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxRows <= 0 {
		c.MaxRows = 1 << 22
	}
	if c.MaxEntries <= 0 {
		c.MaxEntries = 1 << 26
	}
	if c.MaxJobTime <= 0 {
		c.MaxJobTime = 2 * time.Minute
	}
	if c.Resolver == nil {
		c.Resolver = reorder.ByNameCtx
	}
	if c.OrderWorkers < 1 {
		c.OrderWorkers = 1
	}
	if c.StoreEntries <= 0 {
		c.StoreEntries = 1024
	}
	if c.ForwardClient == nil {
		c.ForwardClient = &http.Client{}
	}
	c.Self = strings.TrimSuffix(c.Self, "/")
	if c.Self == "" {
		// Sharding needs a self identity to compare ring owners against;
		// without one the peer list cannot be used.
		c.Peers = nil
	}
	if len(c.Peers) > 0 {
		peers := make([]string, 0, len(c.Peers)+1)
		selfListed := false
		for _, p := range c.Peers {
			p = strings.TrimSuffix(p, "/")
			if p == "" {
				continue
			}
			if p == c.Self {
				selfListed = true
			}
			peers = append(peers, p)
		}
		if !selfListed {
			peers = append(peers, c.Self)
		}
		c.Peers = peers
	}
	return c
}

// Server is the reorderd HTTP service. Create with New, mount Handler,
// and Close on shutdown to drain in-flight jobs.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	pool     *workerPool
	quality  *lruCache // digest → *qualityStats
	features *lruCache // digest → advisor.Features (technique=auto)
	matrices *matrixCache
	metrics  *metrics
	store    *jobStore
	ring     *ring // nil in single-node mode (every key is self-owned)

	closed atomic.Bool
}

// reorderResult is the stored outcome of one job.
type reorderResult struct {
	Perm      sparse.Permutation
	Rows      int32
	Cols      int32
	NNZ       int
	Digest    string
	ComputeMS float64
	Quality   *qualityStats
}

// qualityStats is the community-quality summary returned with every
// permutation: the Section V metrics that predict whether the reordering
// will pay off.
type qualityStats struct {
	Insularity  float64 `json:"insularity"`
	Modularity  float64 `json:"modularity"`
	DegreeSkew  float64 `json:"degree_skew"`
	Communities int32   `json:"communities"`
}

// advisorInfo is the technique=auto block of the /reorder response: how
// the advisor arrived at the technique the response carries.
type advisorInfo struct {
	Model      string           `json:"model"`
	Confidence float64          `json:"confidence"`
	Ranked     []advisor.Scored `json:"ranked"`
}

// reorderResponse is the /reorder JSON body.
type reorderResponse struct {
	Technique   string             `json:"technique"`
	Matrix      string             `json:"matrix,omitempty"`
	Rows        int32              `json:"rows"`
	Cols        int32              `json:"cols"`
	NNZ         int                `json:"nnz"`
	Digest      string             `json:"digest"`
	Cached      bool               `json:"cached"`
	ElapsedMS   float64            `json:"elapsed_ms"`
	ComputeMS   float64            `json:"compute_ms"`
	Permutation sparse.Permutation `json:"permutation"`
	Quality     *qualityStats      `json:"quality,omitempty"`
	Advisor     *advisorInfo       `json:"advisor,omitempty"`
}

// response renders the result as the /reorder body for technique; the
// caller fills in the per-request fields.
func (res *reorderResult) response(technique string) reorderResponse {
	return reorderResponse{
		Technique:   technique,
		Rows:        res.Rows,
		Cols:        res.Cols,
		NNZ:         res.NNZ,
		Digest:      res.Digest,
		ComputeMS:   res.ComputeMS,
		Permutation: res.Perm,
		Quality:     res.Quality,
	}
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		pool:     newWorkerPool(cfg.Workers, cfg.QueueDepth),
		quality:  newLRUCache(cfg.CacheEntries),
		features: newLRUCache(cfg.CacheEntries),
		matrices: newMatrixCache(cfg.MatrixCacheEntries),
		metrics:  newMetrics(),
		store:    newJobStore(cfg.StoreEntries),
	}
	if len(cfg.Peers) > 1 {
		s.ring = newRing(cfg.Self, cfg.Peers)
	}
	s.mux.HandleFunc("/reorder", s.handleReorder)
	s.mux.HandleFunc("/jobs", s.handleJobs)
	s.mux.HandleFunc("/jobs/", s.handleJobGet)
	s.mux.HandleFunc("/ring", s.handleRing)
	s.mux.HandleFunc("/techniques", s.handleTechniques)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Handler returns the service's HTTP handler with request accounting.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.requestStarted(r.URL.Path)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() { s.metrics.requestFinished(rec.status) }()
		s.mux.ServeHTTP(rec, r)
	})
}

// Close stops admission and drains: queued and running jobs finish, their
// waiters get responses, then Close returns. Safe to call more than once.
func (s *Server) Close() {
	s.closed.Store(true)
	s.pool.close()
}

// Metrics exposes counters for tests and the smoke harness.
func (s *Server) Metrics() (cacheHits, cacheMisses int64) {
	return s.metrics.snapshotCounters()
}

type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.status = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.closed.Load() {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.metrics.render(w, s.pool.depth(), s.store.len())
}

func (s *Server) handleTechniques(w http.ResponseWriter, _ *http.Request) {
	names := make([]string, 0, 16)
	for _, t := range reorder.All() {
		names = append(names, t.Name())
	}
	// "auto" is a pseudo-technique: the advisor picks a concrete one per
	// matrix, so it is reported separately from the real orderings.
	s.writeJSON(w, http.StatusOK, map[string]any{"techniques": names, "pseudo": []string{"auto"}})
}

// handleReorder is the synchronous endpoint: parse the request, then
// create-or-get its job in the store and wait for the result under the
// request deadline. A completed job is served as a cache hit; an in-flight
// one (sync or async) is joined rather than recomputed.
func (s *Server) handleReorder(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	req, _, err := s.parseRequest(w, r)
	if err != nil {
		s.writeErr(w, err, http.StatusBadRequest)
		return
	}
	timeout := s.cfg.MaxJobTime
	if raw := r.URL.Query().Get("timeout_ms"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms <= 0 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad timeout_ms %q", raw))
			return
		}
		if d := time.Duration(ms) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	adv, err := s.advise(ctx, req)
	if err != nil {
		s.writeErr(w, err, http.StatusInternalServerError)
		return
	}
	j, joined, err := s.startJob(req, false)
	if err != nil {
		s.writeErr(w, err, http.StatusInternalServerError)
		return
	}
	cached := false
	if joined {
		select {
		case <-j.done:
			cached = true
			s.metrics.cacheHit()
		default:
			s.metrics.cacheMissed()
			s.metrics.dedupWait()
		}
	}
	res, err := s.store.wait(ctx, j)
	if err != nil {
		s.writeErr(w, err, http.StatusInternalServerError)
		return
	}
	resp := res.response(req.technique)
	resp.Matrix = req.matrix
	resp.Cached = cached
	resp.ElapsedMS = float64(time.Since(started)) / float64(time.Millisecond)
	resp.Advisor = adv
	s.writeJSON(w, http.StatusOK, resp)
}

// jobRequest is a parsed reordering request, the part /reorder and
// POST /jobs share. tech is nil until advise resolves technique=auto.
type jobRequest struct {
	tech      reorder.OrdererCtx
	technique string
	quality   bool
	m         *sparse.CSR
	digest    string
	matrix    string // corpus name, when the matrix was referenced
}

// parseRequest resolves the technique and quality flag and loads the
// matrix (upload or corpus reference), which must be square. The raw
// upload bytes are returned beside the request so that forwarding can
// relay them without a job holding on to them.
func (s *Server) parseRequest(w http.ResponseWriter, r *http.Request) (*jobRequest, []byte, error) {
	if s.closed.Load() {
		return nil, nil, ErrShuttingDown
	}
	q := r.URL.Query()
	req := &jobRequest{technique: q.Get("technique"), quality: true}
	if req.technique == "" {
		req.technique = "RABBIT++"
	}
	switch q.Get("quality") {
	case "0", "false", "off", "none":
		req.quality = false
	}
	// technique=auto defers resolution until the matrix is loaded: the
	// advisor picks the concrete technique from the matrix's features.
	if !strings.EqualFold(req.technique, "auto") {
		tech, err := s.cfg.Resolver(req.technique)
		if err != nil && strings.Contains(req.technique, " ") {
			// "+" in a query string decodes to a space and technique names
			// never contain spaces, so undo the damage for clients that send
			// technique=RABBIT++ without percent-encoding.
			fixed := strings.ReplaceAll(req.technique, " ", "+")
			if t2, err2 := s.cfg.Resolver(fixed); err2 == nil {
				tech, err, req.technique = t2, nil, fixed
			}
		}
		if err != nil {
			return nil, nil, err
		}
		req.tech = tech
	}
	m, name, raw, err := s.requestMatrix(w, r)
	if err != nil {
		return nil, nil, err
	}
	if !m.IsSquare() {
		return nil, nil, fmt.Errorf("serve: reordering requires a square matrix, got %dx%d", m.NumRows, m.NumCols)
	}
	req.m, req.digest, req.matrix = m, m.Digest(), name
	return req, raw, nil
}

// errStatus maps a request-path error to its HTTP status; errors it does
// not classify get fallback (400 while parsing, 500 past it).
func errStatus(err error, fallback int) int {
	var maxErr *http.MaxBytesError
	switch {
	case errors.Is(err, ErrSaturated):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.As(err, &maxErr), errors.Is(err, sparse.ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, errUnknownMatrix):
		return http.StatusNotFound
	}
	return fallback
}

// writeErr writes err with its errStatus, counting load shedding.
func (s *Server) writeErr(w http.ResponseWriter, err error, fallback int) {
	status := errStatus(err, fallback)
	switch status {
	case http.StatusTooManyRequests:
		s.metrics.queueShed()
	case http.StatusRequestEntityTooLarge:
		s.metrics.sizeShed()
	}
	s.writeError(w, status, err)
}

// advise resolves technique=auto on the request (a no-op for a named
// technique) and returns how the advisor chose. The feature vector is
// served from the digest-keyed cache when the matrix has been profiled
// before (the extraction, not the model, is the expensive part).
func (s *Server) advise(ctx context.Context, req *jobRequest) (*advisorInfo, error) {
	if req.tech != nil {
		return nil, nil
	}
	v, ok := s.features.get(req.digest)
	if !ok {
		start := time.Now()
		f, err := advisor.FeaturesCtx(ctx, req.m)
		if err != nil {
			return nil, err
		}
		s.metrics.observeFeatures(time.Since(start))
		s.features.put(req.digest, f)
		v = f
	}
	rec := advisor.Recommend(advisor.DefaultModel(), v.(advisor.Features))
	tech, err := s.cfg.Resolver(rec.Best())
	if err != nil {
		return nil, fmt.Errorf("serve: advisor chose unresolvable technique %q: %w", rec.Best(), err)
	}
	req.tech, req.technique = tech, rec.Best()
	s.metrics.advisorRecommended(req.technique)
	return &advisorInfo{Model: rec.Model, Confidence: rec.Confidence, Ranked: rec.Ranked}, nil
}

// errUnknownMatrix marks corpus references that do not resolve, mapped to
// 404 rather than 400.
var errUnknownMatrix = errors.New("serve: unknown corpus matrix")

// requestMatrix produces the request's matrix: a corpus reference via
// ?matrix=<name>, or an uploaded body bounded by the configured byte and
// dimension limits. The upload format is negotiated by Content-Type —
// sparse.BinaryCSRContentType selects the binary CSR codec, anything else
// parses as MatrixMarket text. The raw upload bytes are returned alongside
// so the sharding layer can forward a request without re-encoding.
func (s *Server) requestMatrix(w http.ResponseWriter, r *http.Request) (*sparse.CSR, string, []byte, error) {
	if name := r.URL.Query().Get("matrix"); name != "" {
		preset := s.cfg.Preset
		switch p := r.URL.Query().Get("preset"); p {
		case "", preset.String():
		case gen.Small.String():
			preset = gen.Small
		case gen.Full.String():
			preset = gen.Full
		default:
			return nil, "", nil, fmt.Errorf("serve: unknown preset %q", p)
		}
		m, err := s.matrices.get(name, preset)
		if err != nil {
			return nil, "", nil, fmt.Errorf("%w: %q", errUnknownMatrix, name)
		}
		return m, name, nil, nil
	}
	if r.Body == nil || r.Method == http.MethodGet {
		return nil, "", nil, errors.New("serve: POST a matrix body or pass ?matrix=<corpus name>")
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	defer body.Close()
	raw, err := io.ReadAll(body)
	if err != nil {
		return nil, "", nil, err
	}
	limits := sparse.MMLimits{
		MaxRows:    s.cfg.MaxRows,
		MaxCols:    s.cfg.MaxRows,
		MaxEntries: s.cfg.MaxEntries,
	}
	var m *sparse.CSR
	if uploadIsBinary(r.Header.Get("Content-Type")) {
		m, err = sparse.ReadBinaryCSRLimited(bytes.NewReader(raw), limits)
	} else {
		m, err = sparse.ReadMatrixMarketLimited(bytes.NewReader(raw), limits)
	}
	if err != nil {
		return nil, "", nil, err
	}
	return m, "", raw, nil
}

// uploadIsBinary reports whether the Content-Type selects the binary CSR
// codec. Parameters (charset etc.) are ignored; only the media type counts.
func uploadIsBinary(contentType string) bool {
	mt := contentType
	if i := strings.IndexByte(mt, ';'); i >= 0 {
		mt = mt[:i]
	}
	return strings.EqualFold(strings.TrimSpace(mt), sparse.BinaryCSRContentType)
}

// startJob is create-or-get on the job store for a resolved request: it
// joins (or, with pin, pins) the resident job, or installs a fresh one and
// runs it on the worker pool. The returned bool reports a join. A job shed
// by the pool is completed as failed, so anyone who joined it in the
// meantime sees the same error and the next request replaces it.
func (s *Server) startJob(req *jobRequest, pin bool) (*storedJob, bool, error) {
	// The job context is detached from any single request: the job runs
	// while it is pinned or has waiters, bounded by MaxJobTime.
	//lint:allow ctxflow jobs outlive the submitting request by design; waiter refcount and MaxJobTime bound them
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.MaxJobTime)
	id := jobID(strings.TrimPrefix(req.digest, "sha256:"), req.technique, req.quality)
	j, joined := s.store.acquire(id, req.digest, req.technique, req.quality, pin, cancel)
	if joined {
		cancel()
		return j, true, nil
	}
	s.metrics.cacheMissed()
	err := s.pool.trySubmit(func() {
		defer cancel()
		s.store.setRunning(j)
		res, err := s.runJob(ctx, req)
		s.store.complete(j, res, err)
	})
	if err != nil {
		cancel()
		s.store.complete(j, nil, err)
		return nil, false, err
	}
	return j, false, nil
}

// runJob executes one reordering on a pool worker: the technique's
// cancellable ordering, then (unless disabled) the community-quality
// metrics, which are cached per matrix digest so a technique sweep over
// one matrix detects communities once.
func (s *Server) runJob(ctx context.Context, req *jobRequest) (*reorderResult, error) {
	start := time.Now()
	m := req.m
	var p sparse.Permutation
	var err error
	if po, ok := req.tech.(reorder.ParallelOrderer); ok {
		p, err = po.OrderParallelCtx(ctx, m, reorder.Options{Workers: s.cfg.OrderWorkers})
	} else {
		p, err = req.tech.OrderCtx(ctx, m)
	}
	s.metrics.observeJob(req.tech.Name(), time.Since(start), err != nil)
	if err != nil {
		return nil, err
	}
	res := &reorderResult{
		Perm:      p,
		Rows:      m.NumRows,
		Cols:      m.NumCols,
		NNZ:       m.NNZ(),
		Digest:    req.digest,
		ComputeMS: float64(time.Since(start)) / float64(time.Millisecond),
	}
	if req.quality {
		qs, err := s.qualityFor(ctx, res.Digest, m)
		if err != nil {
			return nil, err
		}
		res.Quality = qs
	}
	return res, nil
}

// qualityFor returns the digest's community-quality stats, computing and
// caching them on first use.
func (s *Server) qualityFor(ctx context.Context, digest string, m *sparse.CSR) (*qualityStats, error) {
	if v, ok := s.quality.get(digest); ok {
		return v.(*qualityStats), nil
	}
	rr, err := core.RabbitCtx(ctx, m)
	if err != nil {
		return nil, err
	}
	cs := core.Analyze(m, rr.Communities)
	qs := &qualityStats{
		Insularity:  cs.Insularity,
		Modularity:  cs.Modularity,
		DegreeSkew:  cs.Skew,
		Communities: cs.Communities,
	}
	s.quality.put(digest, qs)
	return qs, nil
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	// Encoding errors past the header are connection-level; nothing
	// useful remains to send the client.
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}
