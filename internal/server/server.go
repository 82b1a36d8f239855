package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/memgaze/memgaze-go/internal/cluster"
	"github.com/memgaze/memgaze-go/internal/engine"
	"github.com/memgaze/memgaze-go/internal/pt"
	"github.com/memgaze/memgaze-go/internal/storage"
	"github.com/memgaze/memgaze-go/internal/trace"
)

// Content types of POST /v1/traces bodies.
const (
	// ContentTypeTrace is a serialised trace (trace.Trace.Write/Encode).
	ContentTypeTrace = "application/x-memgaze-trace"
	// ContentTypePT is a raw PT capture (pt.Capture.Write): the raw
	// buffer snapshots plus annotations, built server-side by the
	// pt.Builder pipeline.
	ContentTypePT = "application/x-memgaze-pt"
)

// Config parameterises a Server. Zero fields take the defaults noted.
type Config struct {
	// StoreBudgetBytes bounds resident encoded trace bytes; the store
	// evicts least-recently-used traces over it (default 256 MiB,
	// negative = unbounded).
	StoreBudgetBytes int64
	// ResultCacheBytes bounds the marshalled-report result cache
	// (default 64 MiB, negative = disabled).
	ResultCacheBytes int64
	// Workers bounds concurrently executing analysis jobs across all
	// requests — the server's shared engine worker pool (default
	// GOMAXPROCS). Each job is one engine suite run; the suite's own
	// internal parallelism is bounded by EngineParallelism.
	Workers int
	// EngineParallelism bounds analyses running concurrently within one
	// suite run (default: the engine's own default, GOMAXPROCS).
	EngineParallelism int
	// SweepShards splits each analysis's trace walks into that many
	// concurrently walked sample shards; results are byte-identical at
	// every shard count (default: the engine's own default, GOMAXPROCS;
	// 1 forces sequential walks).
	SweepShards int
	// RequestTimeout bounds one analysis execution; expiry answers 504
	// (default 30s).
	RequestTimeout time.Duration
	// MaxUploadBytes bounds a POST /v1/traces body (default 256 MiB).
	MaxUploadBytes int64
	// BuildWorkers bounds samples decoded concurrently per PT-capture
	// upload (default GOMAXPROCS).
	BuildWorkers int
	// StreamChunkBytes is the read granularity of streamed uploads
	// (PUT /v1/traces:stream): peak raw memory per streamed PT build is
	// O(StreamChunkBytes × BuildWorkers) regardless of capture size
	// (default pt.DefaultStreamChunk, 256 KiB).
	StreamChunkBytes int
	// DataDir, when non-empty, enables the durable tier: uploads write
	// through to an append-only content-addressed segment store there
	// (internal/storage) and the corpus survives restarts, with the
	// in-memory store demoted to a hot-tier cache in front of the disk.
	// Empty keeps the memory-only mode, where a restart loses the
	// corpus.
	DataDir string
	// SegmentTargetBytes is the durable tier's segment roll size
	// (default 64 MiB; only meaningful with DataDir set).
	SegmentTargetBytes int64
	// Peers, when non-empty, joins this replica to a static memgazed
	// fleet: the full replica set's advertise addresses, this replica's
	// included. Every replica must be configured with the same set —
	// trace ownership is a pure rendezvous-hash function of it. Empty
	// keeps single-node mode.
	Peers []string
	// Advertise is this replica's own address exactly as it appears in
	// Peers (required when Peers is set; spellings normalize, so
	// "host:port" matches "http://host:port").
	Advertise string
	// ProbeInterval is the peer readyz prober's period (default 2s;
	// negative disables the background loop — tests drive probes
	// explicitly).
	ProbeInterval time.Duration
	// PeerTimeout bounds one proxied peer request end to end, retries
	// included (default 60s).
	PeerTimeout time.Duration
	// Replication is how many replicas own each trace: uploads write
	// through to the top-Replication peers of the id's rendezvous order
	// (quorum = 1 durable ack, best-effort fan-out to the rest) and
	// reads fail over along it (default 2, clamped to the peer count;
	// 1 reproduces the single-owner fast-fail ring; only meaningful
	// with Peers set).
	Replication int
	// RepairInterval is the anti-entropy repair loop's period: each
	// round re-replicates under-replicated ids to rejoined owners and
	// propagates tombstones (default 30s; negative disables the loop —
	// tests drive repairNow explicitly; only meaningful with Peers set
	// and Replication > 1).
	RepairInterval time.Duration
}

func (c *Config) applyDefaults() {
	if c.StoreBudgetBytes == 0 {
		c.StoreBudgetBytes = 256 << 20
	}
	if c.ResultCacheBytes == 0 {
		c.ResultCacheBytes = 64 << 20
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 256 << 20
	}
	if c.StreamChunkBytes <= 0 {
		c.StreamChunkBytes = pt.DefaultStreamChunk
	}
	if c.RepairInterval == 0 {
		c.RepairInterval = 30 * time.Second
	}
}

// Server is the memgazed HTTP service. Create one with New, serve it
// with net/http (Server implements http.Handler), and Close it after
// the listener has drained. Endpoints:
//
//	POST   /v1/traces              upload a trace (ContentTypeTrace) or raw PT capture (ContentTypePT)
//	PUT    /v1/traces:stream       streamed upload: chunked transfer, bounded memory, mid-stream quota
//	GET    /v1/traces              paged listing of stored trace metadata (TraceInfo, with tier)
//	GET    /v1/traces/{id}         trace metadata (TraceInfo)
//	GET    /v1/traces/{id}/raw     download the trace's MGTR encoding (streamed; ETag = content hash, 304 on If-None-Match, HEAD probes)
//	DELETE /v1/traces/{id}         delete a trace (durable tombstone with a DataDir; 410 afterwards)
//	POST   /v1/traces/{id}/analyze run a set of engine analyses, JSON Report
//	POST   /v1/diff                compare two stored traces, JSON DiffReport
//	GET    /v1/healthz             liveness: the process is up
//	GET    /v1/readyz              readiness: the durable tier can take writes (503 routes traffic away)
//	GET    /metrics                Prometheus text metrics
//
// Error responses are the envelope {"error": {"code", "message"}} with
// the stable codes of errors.go.
type Server struct {
	cfg     Config
	store   *Store
	disk    *storage.Store   // durable tier; nil in memory-only mode
	cluster *cluster.Cluster // fleet membership + proxy; nil single-node
	results *resultCache
	flights *flightGroup
	metrics *Metrics
	mux     *http.ServeMux

	baseCtx    context.Context // server lifetime: bounds analysis jobs
	baseCancel context.CancelFunc
	jobs       chan func()
	quit       chan struct{}
	workers    sync.WaitGroup

	// hookAnalyzeStart, when non-nil, runs at the start of each engine
	// job (tests use it to hold a leader in place while duplicates
	// arrive and coalesce).
	hookAnalyzeStart func()
}

// New creates a Server and starts its analysis worker pool. With
// cfg.DataDir set it also opens (or recovers) the durable segment
// store there; an unrecoverable data directory is the only error.
func New(cfg Config) (*Server, error) {
	cfg.applyDefaults()
	s := &Server{
		cfg:     cfg,
		store:   NewStore(cfg.StoreBudgetBytes),
		results: newResultCache(cfg.ResultCacheBytes),
		flights: newFlightGroup(),
		metrics: newMetrics(),
		jobs:    make(chan func()),
		quit:    make(chan struct{}),
	}
	if cfg.DataDir != "" {
		disk, err := storage.Open(storage.Config{
			Dir:                cfg.DataDir,
			SegmentTargetBytes: cfg.SegmentTargetBytes,
		})
		if err != nil {
			return nil, fmt.Errorf("opening durable store: %w", err)
		}
		s.disk = disk
	}
	if len(cfg.Peers) > 0 {
		cl, err := cluster.New(cluster.Config{
			Self:           cfg.Advertise,
			Peers:          cfg.Peers,
			Replication:    cfg.Replication,
			ProbeInterval:  cfg.ProbeInterval,
			RequestTimeout: cfg.PeerTimeout,
		})
		if err != nil {
			if s.disk != nil {
				s.disk.Close()
			}
			return nil, err
		}
		s.cluster = cl
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if s.cluster != nil && s.cluster.Replication() > 1 && cfg.RepairInterval > 0 {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			s.repairLoop(cfg.RepairInterval)
		}()
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for {
				select {
				case fn := <-s.jobs:
					fn()
				case <-s.quit:
					return
				}
			}
		}()
	}
	mux := http.NewServeMux()
	mux.Handle("POST /v1/traces", s.instrument("upload", s.handleUpload))
	mux.Handle("PUT /v1/traces:stream", s.instrument("stream", s.handleStream))
	mux.Handle("GET /v1/traces", s.instrument("list", s.handleList))
	mux.Handle("GET /v1/traces/{id}", s.instrument("get", s.handleGet))
	mux.Handle("GET /v1/traces/{id}/raw", s.instrument("raw", s.handleRaw))
	mux.Handle("DELETE /v1/traces/{id}", s.instrument("delete", s.handleDelete))
	mux.Handle("POST /v1/traces/{id}/analyze", s.instrument("analyze", s.handleAnalyze))
	mux.Handle("POST /v1/diff", s.instrument("diff", s.handleDiff))
	mux.Handle("GET /v1/healthz", s.instrument("healthz", s.handleHealthz))
	mux.Handle("GET /v1/readyz", s.instrument("readyz", s.handleReadyz))
	mux.Handle("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux = mux
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Handler returns the server's route mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's metrics for out-of-band inspection.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close stops the analysis worker pool, cancels any still-running
// jobs, and — with a durable tier — syncs the active segment to stable
// storage and closes the segment files, so a SIGTERM drain loses
// nothing. Call it only after the HTTP listener has drained (for
// graceful shutdown: http.Server.Shutdown first, then Close); closing
// earlier aborts in-flight analyses, which then answer 503.
func (s *Server) Close() {
	s.baseCancel()
	close(s.quit)
	s.workers.Wait()
	if s.cluster != nil {
		s.cluster.Close()
	}
	if s.disk != nil {
		s.disk.Close()
	}
}

// statusWriter captures the response code for the error counters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so instrumented handlers keep
// streaming capability.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController,
// which recovers the deadline and flush interfaces through the wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// ReadFrom forwards io.ReaderFrom to the underlying writer. io.Copy
// does not know about Unwrap, so without this the wrapper would hide
// net/http's ReadFrom — and with it the sendfile/splice fast path —
// from every streamed response body. Of the remaining optional
// interfaces, Flusher is forwarded above, deadline control is recovered
// via Unwrap, and Hijacker/Pusher are deliberately not forwarded: no
// endpoint upgrades connections or pushes.
func (w *statusWriter) ReadFrom(r io.Reader) (int64, error) {
	if rf, ok := w.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(r)
	}
	return io.Copy(w.ResponseWriter, r)
}

// instrument wraps a handler with the endpoint's request counter
// (incremented on arrival, so coalesced waiters are visible while they
// wait), error counter, and latency histogram.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.requests[endpoint].Add(1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		s.metrics.latency[endpoint].ObserveDuration(time.Since(start))
		if sw.status >= 400 {
			s.metrics.errors[endpoint].Add(1)
		}
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError answers with the structured /v1 error envelope: a stable
// machine-readable code (the errors.go registry) plus a free-form
// message.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, ErrorEnvelope{Error: ErrorBody{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// Storage tiers of a TraceInfo.
const (
	// tierHot: resident in the in-memory cache (and, in durable mode,
	// also on disk — hot is a cache in front of the durable tier).
	tierHot = "hot"
	// tierDisk: durable tier only; the next read promotes it.
	tierDisk = "disk"
)

// TraceInfo is the stable metadata shape shared by uploads,
// GET /v1/traces/{id}, and every GET /v1/traces listing entry.
type TraceInfo struct {
	ID      string  `json:"id"`
	Module  string  `json:"module"`
	Mode    string  `json:"mode"`
	Samples int     `json:"samples"`
	Records int     `json:"records"`
	Bytes   int64   `json:"bytes"` // encoded (stored) size
	Rho     float64 `json:"rho"`
	Kappa   float64 `json:"kappa"`
	// Tier is where the trace currently sits: "hot" (in-memory cache)
	// or "disk" (durable tier only, promoted on next read).
	Tier string `json:"tier"`
	// Uploaded is when this content first arrived (dedup keeps the
	// original time; in durable mode it survives restarts).
	Uploaded time.Time `json:"uploaded"`
	// Existed is true when an upload deduplicated against a stored
	// trace with identical content.
	Existed bool `json:"existed,omitempty"`
	// Decode carries the build accounting of a PT-capture upload.
	Decode *pt.DecodeStats `json:"decode,omitempty"`
}

func traceInfo(id string, tr *trace.Trace, size int64) TraceInfo {
	records, implied := tr.Counts()
	rho, kappa := tr.RhoKappa(records, implied)
	return TraceInfo{
		ID:      id,
		Module:  tr.Module,
		Mode:    tr.Mode,
		Samples: tr.NumSamples(),
		Records: records,
		Bytes:   size,
		Rho:     rho,
		Kappa:   kappa,
	}
}

// diskInfo builds the TraceInfo of a durable-tier index entry — no
// MGTR decode; everything comes from the stored Meta blob.
func diskInfo(id string, m storage.Meta, size int64, tier string) TraceInfo {
	return TraceInfo{
		ID:       id,
		Module:   m.Module,
		Mode:     m.Mode,
		Samples:  m.Samples,
		Records:  m.Records,
		Bytes:    size,
		Rho:      m.Rho,
		Kappa:    m.Kappa,
		Tier:     tier,
		Uploaded: m.Uploaded,
	}
}

// storeTrace lands a decoded upload in the tiers: write-through to the
// durable store first when one is configured — a disk failure fails
// the upload, so the hot tier never serves a trace the disk lost —
// then the hot tier. It reports whether the content is new and the
// upload time to answer with (dedup keeps the original's). A non-zero
// at is a replication write carrying the ack's upload time, so every
// owner's copy agrees on the metadata; zero stamps now.
func (s *Server) storeTrace(id string, tr *trace.Trace, size int64, at time.Time) (added bool, uploaded time.Time, err error) {
	uploaded = at.UTC()
	if at.IsZero() {
		uploaded = time.Now().UTC()
	}
	if s.disk != nil {
		records, implied := tr.Counts()
		rho, kappa := tr.RhoKappa(records, implied)
		m := storage.Meta{
			Module:   tr.Module,
			Mode:     tr.Mode,
			Samples:  tr.NumSamples(),
			Records:  records,
			Rho:      rho,
			Kappa:    kappa,
			Uploaded: uploaded,
		}
		added, err = s.disk.Put(id, m, size, tr)
		if err != nil {
			return false, time.Time{}, err
		}
		if !added {
			if prev, _, ierr := s.disk.Info(id); ierr == nil {
				uploaded = prev.Uploaded
			}
		}
		s.store.Put(id, tr, size, uploaded)
		return added, uploaded, nil
	}
	if !s.store.Put(id, tr, size, uploaded) {
		if _, _, prev, ok := s.store.Meta(id); ok {
			uploaded = prev
		}
		return false, uploaded, nil
	}
	return true, uploaded, nil
}

// fetch returns the trace under id for analysis or download: the hot
// tier first (a read bumps recency), then the durable tier on a miss —
// the disk copy is CRC-verified, decoded, and promoted into the hot
// tier so repeat reads stay in memory. Errors are storage.ErrNotFound,
// storage.ErrDeleted, or a wrapped disk failure; writeFetchError maps
// them onto the /v1 registry.
func (s *Server) fetch(id string) (*trace.Trace, int64, error) {
	if tr, size, ok := s.store.Get(id); ok {
		return tr, size, nil
	}
	if s.disk == nil {
		return nil, 0, storage.ErrNotFound
	}
	b, m, err := s.disk.Get(id)
	if err != nil {
		return nil, 0, err
	}
	tr, err := trace.Decode(b)
	if err != nil {
		// The bytes passed their CRC but do not decode — a storage-side
		// fault (format skew, not a client error).
		return nil, 0, fmt.Errorf("decoding stored trace %s: %w", id, err)
	}
	s.metrics.promotions.Add(1)
	s.store.Put(id, tr, int64(len(b)), m.Uploaded)
	return tr, int64(len(b)), nil
}

// infoFor resolves a trace's TraceInfo without promoting or bumping
// recency: the hot tier first, then the durable index (no payload
// read). The error taxonomy matches fetch.
func (s *Server) infoFor(id string) (TraceInfo, error) {
	if tr, size, uploaded, ok := s.store.Meta(id); ok {
		info := traceInfo(id, tr, size)
		info.Tier = tierHot
		info.Uploaded = uploaded
		return info, nil
	}
	if s.disk == nil {
		return TraceInfo{}, storage.ErrNotFound
	}
	m, size, err := s.disk.Info(id)
	if err != nil {
		return TraceInfo{}, err
	}
	return diskInfo(id, m, size, tierDisk), nil
}

// writeFetchError maps a fetch/infoFor error onto the error registry:
// 404 trace_not_found, 410 trace_deleted (durably tombstoned), 503
// storage_unavailable (the disk tier failed).
func (s *Server) writeFetchError(w http.ResponseWriter, id string, err error) {
	switch {
	case errors.Is(err, storage.ErrNotFound):
		writeError(w, http.StatusNotFound, ErrCodeTraceNotFound, "unknown trace %q", id)
	case errors.Is(err, storage.ErrDeleted):
		writeError(w, http.StatusGone, ErrCodeTraceDeleted, "trace %q was deleted", id)
	default:
		writeError(w, http.StatusServiceUnavailable, ErrCodeStorageUnavailable, "durable store: %v", err)
	}
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, ErrCodeBodyTooLarge, "body exceeds %d bytes", mbe.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, "reading body: %v", err)
		return
	}

	var tr *trace.Trace
	var ds *pt.DecodeStats
	ctype, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";")
	switch strings.TrimSpace(ctype) {
	case ContentTypePT:
		var policy pt.FaultPolicy
		if policy, err = faultPolicy(r); err == nil {
			tr, ds, err = s.buildPT(r, bytes.NewReader(body), policy)
		}
		if err != nil {
			var ce *pt.CorruptionError
			switch {
			case errors.As(err, &ce):
				writeError(w, http.StatusUnprocessableEntity, ErrCodeCorruptPTStream, "corrupt PT stream: %v", ce)
			case errors.Is(err, context.Canceled):
				// Client went away mid-build: same treatment as a
				// cancelled analysis, not a client error.
				writeError(w, http.StatusServiceUnavailable, ErrCodeCancelled, "build cancelled")
			default:
				writeError(w, http.StatusBadRequest, ErrCodeInvalidCapture, "PT capture: %v", err)
			}
			return
		}
	case ContentTypeTrace, "application/octet-stream", "":
		tr, err = trace.Decode(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, ErrCodeInvalidTrace, "trace: %v", err)
			return
		}
	default:
		writeError(w, http.StatusUnsupportedMediaType, ErrCodeUnsupportedMediaType, "unsupported content type %q", ctype)
		return
	}

	id, size := tr.HashAndSize()
	plan, ok := s.planRoute(r, "upload", id)
	if !ok {
		s.writeNoLiveOwner(w, id)
		return
	}
	if !plan.local {
		s.forwardUpload(w, r, plan.remotes, id, tr, ds)
		return
	}
	added, uploaded, err := s.storeTrace(id, tr, size, internalUploadTime(r))
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, ErrCodeStorageUnavailable, "durable store: %v", err)
		return
	}
	s.replicateUpload(r, tr, uploaded, plan.remotes)
	info := traceInfo(id, tr, size)
	info.Tier = tierHot // an upload always lands hot
	info.Uploaded = uploaded
	info.Existed = !added
	info.Decode = ds
	status := http.StatusCreated
	if !added {
		status = http.StatusOK
	}
	w.Header().Set("Location", "/v1/traces/"+id)
	writeJSON(w, status, info)
}

// faultPolicy parses the ?fault query parameter shared by both upload
// paths (resync, the default, or fail).
func faultPolicy(r *http.Request) (pt.FaultPolicy, error) {
	switch v := r.URL.Query().Get("fault"); v {
	case "", "resync":
		return pt.FaultResync, nil
	case "fail":
		return pt.FaultFail, nil
	default:
		return 0, fmt.Errorf("unknown fault policy %q", v)
	}
}

// buildPT builds a PT capture upload's trace. Both upload handlers call
// it, so buffered and streamed PT uploads build identically: samples are
// decoded on the build workers as they come off body, through the
// build's recycled sample buffers.
func (s *Server) buildPT(r *http.Request, body io.Reader, policy pt.FaultPolicy) (*trace.Trace, *pt.DecodeStats, error) {
	tr, ds, err := pt.BuildCaptureStream(r.Context(), body,
		pt.WithWorkers(s.cfg.BuildWorkers),
		pt.WithChunkBytes(s.cfg.StreamChunkBytes),
		pt.WithFaultPolicy(policy),
	)
	if err != nil {
		return nil, nil, err
	}
	return tr, &ds, nil
}

// countingReader counts bytes as they come off the wire — the
// bytes-streamed histogram's source, observed whether or not the upload
// succeeds.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// handleStream is PUT /v1/traces:stream: the bounded-memory upload
// path. The body — chunked transfer or unknown Content-Length included
// — is consumed incrementally: a PT capture decodes through
// pt.BuildCaptureStream with samples pipelined onto the build workers;
// an MGTR trace decodes through trace.Read directly off the wire. The
// byte quota is enforced mid-stream by http.MaxBytesReader (413 on
// breach, nothing buffered), client disconnects surface between chunks
// as context cancellation (503), and the stored id comes from the
// trace's canonical encoding streamed through a trace.Hasher — so a
// streamed upload of any valid body deduplicates against its buffered
// twin byte-for-byte.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.metrics.streamsInFlight.Add(1)
	defer s.metrics.streamsInFlight.Add(-1)
	body := &countingReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)}
	defer func() { s.metrics.streamBytes.Observe(float64(body.n)) }()

	var (
		tr  *trace.Trace
		ds  *pt.DecodeStats
		err error
	)
	ctype, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";")
	switch strings.TrimSpace(ctype) {
	case ContentTypePT:
		var policy pt.FaultPolicy
		policy, err = faultPolicy(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, "%v", err)
			return
		}
		tr, ds, err = s.buildPT(r, body, policy)
	case ContentTypeTrace, "application/octet-stream", "":
		tr, err = trace.Read(body)
	default:
		writeError(w, http.StatusUnsupportedMediaType, ErrCodeUnsupportedMediaType, "unsupported content type %q", ctype)
		return
	}
	if err != nil {
		var mbe *http.MaxBytesError
		var ce *pt.CorruptionError
		switch {
		case errors.As(err, &mbe):
			writeError(w, http.StatusRequestEntityTooLarge, ErrCodeBodyTooLarge, "body exceeds %d bytes", mbe.Limit)
		case errors.As(err, &ce):
			writeError(w, http.StatusUnprocessableEntity, ErrCodeCorruptPTStream, "corrupt PT stream: %v", ce)
		case errors.Is(err, context.Canceled) || r.Context().Err() != nil:
			writeError(w, http.StatusServiceUnavailable, ErrCodeCancelled, "stream cancelled")
		default:
			writeError(w, http.StatusBadRequest, ErrCodeInvalidTrace, "stream: %v", err)
		}
		return
	}

	// Identity from the canonical encoding, streamed through the
	// incremental hasher: one serialisation pass, nothing materialised.
	h := trace.NewHasher()
	if err := tr.Write(h); err != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeInternal, "hashing: %v", err)
		return
	}
	id, size := h.Sum()
	plan, ok := s.planRoute(r, "stream", id)
	if !ok {
		s.writeNoLiveOwner(w, id)
		return
	}
	if !plan.local {
		s.forwardUpload(w, r, plan.remotes, id, tr, ds)
		return
	}
	added, uploaded, err := s.storeTrace(id, tr, size, internalUploadTime(r))
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, ErrCodeStorageUnavailable, "durable store: %v", err)
		return
	}
	s.replicateUpload(r, tr, uploaded, plan.remotes)
	info := traceInfo(id, tr, size)
	info.Tier = tierHot
	info.Uploaded = uploaded
	info.Existed = !added
	info.Decode = ds
	status := http.StatusCreated
	if !added {
		status = http.StatusOK
	}
	w.Header().Set("Location", "/v1/traces/"+id)
	writeJSON(w, status, info)
}

// etagMatch reports whether an If-None-Match header matches etag.
// Weak validators compare equal — the content hash makes every stored
// representation byte-identical, so W/ prefixes carry no information
// here — and "*" matches any stored trace.
func etagMatch(header, etag string) bool {
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimPrefix(strings.TrimSpace(c), "W/")
		if c == "*" || c == etag {
			return true
		}
	}
	return false
}

// handleRaw is GET (and HEAD) /v1/traces/{id}/raw: the streamed
// download twin of the upload paths. The id is the content hash, so it
// doubles as a strong ETag: If-None-Match answers 304 without touching
// the payload, and HEAD probes the fleet for a hash — headers only, no
// promotion, no recency bump. An actual download fetches through the
// tiers (promoting a disk-resident trace) and serialises the MGTR
// encoding straight into the response via Trace.WriteTo —
// Content-Length is known from stored accounting, nothing is buffered.
func (s *Server) handleRaw(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	plan, ok := s.planRoute(r, "raw", id)
	if !ok {
		s.writeNoLiveOwner(w, id)
		return
	}
	if !plan.local {
		s.relayFirst(w, r, plan.remotes, id)
		return
	}
	info, err := s.infoFor(id)
	if err != nil {
		if errors.Is(err, storage.ErrNotFound) && len(plan.remotes) > 0 {
			// An owner too, but the copy has not landed here (yet):
			// another owner has it.
			s.relayFirst(w, r, plan.remotes, id)
			return
		}
		s.writeFetchError(w, id, err)
		return
	}
	etag := `"` + id + `"`
	w.Header().Set("ETag", etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", ContentTypeTrace)
	w.Header().Set("Content-Length", strconv.FormatInt(info.Bytes, 10))
	if r.Method == http.MethodHead {
		return // existence probe: headers only
	}
	tr, _, err := s.fetch(id) // a download is a use: bump recency, promote
	if err != nil {
		s.writeFetchError(w, id, err)
		return
	}
	tr.WriteTo(w)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	plan, ok := s.planRoute(r, "get", id)
	if !ok {
		s.writeNoLiveOwner(w, id)
		return
	}
	if !plan.local {
		s.relayFirst(w, r, plan.remotes, id)
		return
	}
	info, err := s.infoFor(id)
	if err != nil {
		if errors.Is(err, storage.ErrNotFound) && len(plan.remotes) > 0 {
			s.relayFirst(w, r, plan.remotes, id)
			return
		}
		s.writeFetchError(w, id, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	plan, ok := s.planRoute(r, "delete", id)
	if !ok {
		s.writeNoLiveOwner(w, id)
		return
	}
	if s.cluster == nil || isInternal(r) {
		status, err := s.deleteLocal(id)
		s.writeDeleteStatus(w, id, status, err)
		return
	}
	s.clusterDelete(w, r, plan, id)
}

// deleteLocal applies a delete to the local tiers only and reports the
// outcome as an HTTP status: 204 deleted (durable tombstone with a
// disk tier), 410 already tombstoned, 404 never stored, 503 the disk
// tier failed (err carries the cause then).
func (s *Server) deleteLocal(id string) (int, error) {
	if s.disk != nil {
		ok, err := s.disk.Delete(id)
		if err != nil {
			return http.StatusServiceUnavailable, err
		}
		if !ok {
			// Not live: distinguish never-stored from already-deleted.
			if _, _, ierr := s.disk.Info(id); errors.Is(ierr, storage.ErrDeleted) {
				return http.StatusGone, nil
			}
			return http.StatusNotFound, nil
		}
		s.store.Delete(id) // drop the hot copy with the durable one
		s.results.InvalidateTrace(id)
		return http.StatusNoContent, nil
	}
	if !s.store.Delete(id) {
		return http.StatusNotFound, nil
	}
	s.results.InvalidateTrace(id)
	return http.StatusNoContent, nil
}

// writeDeleteStatus renders a delete outcome (deleteLocal's or the
// strongest of a clusterDelete's) onto the wire in the /v1 envelope.
func (s *Server) writeDeleteStatus(w http.ResponseWriter, id string, status int, err error) {
	switch status {
	case http.StatusNoContent:
		w.WriteHeader(http.StatusNoContent)
	case http.StatusGone:
		writeError(w, http.StatusGone, ErrCodeTraceDeleted, "trace %q already deleted", id)
	case http.StatusNotFound:
		writeError(w, http.StatusNotFound, ErrCodeTraceNotFound, "unknown trace %q", id)
	default:
		writeError(w, http.StatusServiceUnavailable, ErrCodeStorageUnavailable, "durable store: %v", err)
	}
}

// handleHealthz is GET /v1/healthz: pure liveness — the process is up
// and serving. Storage state is deliberately excluded; that is readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is GET /v1/readyz: the load-balancer routing probe. A
// replica whose durable tier cannot take writes (sticky append/sync
// failure) or whose compactor is wedged answers 503 so traffic drains
// away while the process — still alive per healthz — keeps serving
// what it can. Memory-only mode is always ready.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.disk == nil {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "storage": "memory"})
		return
	}
	if err := s.disk.Healthy(); err != nil {
		writeError(w, http.StatusServiceUnavailable, ErrCodeStorageUnavailable, "not ready: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "storage": "durable"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w, s.store, s.results, s.disk, s.cluster)
}

// AnalyzeRequest is the JSON body of POST /v1/traces/{id}/analyze.
// Every field is optional; zero values take the engine defaults, and an
// empty (or absent) analysis list runs the engine's default suite.
type AnalyzeRequest struct {
	// Analyses names the analyses to run ("functions", "mrc", …; see
	// engine.Analysis.String).
	Analyses []string `json:"analyses,omitempty"`
	// BlockSize is the access-block granularity in bytes.
	BlockSize uint64 `json:"block_size,omitempty"`
	// PageSize is the working-set page size in bytes.
	PageSize uint64 `json:"page_size,omitempty"`
	// Windows are the trace-window sizes.
	Windows []uint64 `json:"windows,omitempty"`
	// Capacities are the miss-ratio curve capacities in blocks.
	Capacities []int `json:"capacities,omitempty"`
	// TimeIntervals is the interval-tree breakdown granularity.
	TimeIntervals *int `json:"time_intervals,omitempty"`
	// WorkingSetIntervals is the working-set curve granularity.
	WorkingSetIntervals *int `json:"working_set_intervals,omitempty"`
	// ROICoverPct is the load share the suggested ROI must cover.
	ROICoverPct float64 `json:"roi_cover_pct,omitempty"`
	// HeatmapLo/HeatmapHi fix the heatmap region.
	HeatmapLo uint64 `json:"heatmap_lo,omitempty"`
	HeatmapHi uint64 `json:"heatmap_hi,omitempty"`
	// HeatmapRows/HeatmapCols set the heatmap geometry.
	HeatmapRows int `json:"heatmap_rows,omitempty"`
	HeatmapCols int `json:"heatmap_cols,omitempty"`
}

// engineOptions translates the request into engine options, leaving
// engine defaults in place for zero fields.
func (q *AnalyzeRequest) engineOptions() ([]engine.Option, error) {
	var opts []engine.Option
	if len(q.Analyses) > 0 {
		kinds := make([]engine.Analysis, 0, len(q.Analyses))
		for _, name := range q.Analyses {
			a, ok := engine.ParseAnalysis(name)
			if !ok {
				return nil, fmt.Errorf("unknown analysis %q", name)
			}
			kinds = append(kinds, a)
		}
		opts = append(opts, engine.WithAnalyses(kinds...))
	}
	if q.BlockSize > 0 {
		opts = append(opts, engine.WithBlockSize(q.BlockSize))
	}
	if q.PageSize > 0 {
		opts = append(opts, engine.WithPageSize(q.PageSize))
	}
	if len(q.Windows) > 0 {
		opts = append(opts, engine.WithWindows(q.Windows))
	}
	if len(q.Capacities) > 0 {
		opts = append(opts, engine.WithCapacities(q.Capacities))
	}
	if q.TimeIntervals != nil {
		opts = append(opts, engine.WithTimeIntervals(*q.TimeIntervals))
	}
	if q.WorkingSetIntervals != nil {
		opts = append(opts, engine.WithWorkingSetIntervals(*q.WorkingSetIntervals))
	}
	if q.ROICoverPct > 0 {
		opts = append(opts, engine.WithROICoverage(q.ROICoverPct))
	}
	if q.HeatmapLo != 0 || q.HeatmapHi != 0 {
		opts = append(opts, engine.WithHeatmapRegion(q.HeatmapLo, q.HeatmapHi))
	}
	if q.HeatmapRows > 0 || q.HeatmapCols > 0 {
		opts = append(opts, engine.WithHeatmapBins(q.HeatmapRows, q.HeatmapCols))
	}
	return opts, nil
}

// cacheKey digests the normalised request under the trace id. The id
// is a content hash, so the key captures (trace content, analysis set,
// params) — the coalescing and result-cache identity.
func (q *AnalyzeRequest) cacheKey(id string) string {
	norm, _ := json.Marshal(q) // struct marshal: deterministic field order
	sum := sha256.Sum256(norm)
	return id + "|" + hex.EncodeToString(sum[:])
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	plan, _ := s.planRoute(r, "analyze", id)
	// Not an owner: proxy — even with every owner down, because the
	// replica-local result cache may still hold the report (checked
	// inside; only an uncached analyze is peer_unavailable then).
	if !plan.local {
		s.proxyAnalyzeRequest(w, r, plan.remotes, id)
		return
	}
	tr, _, err := s.fetch(id)
	if err != nil {
		if errors.Is(err, storage.ErrNotFound) && len(plan.remotes) > 0 {
			// An owner missing its copy: another owner resolves it.
			s.proxyAnalyzeRequest(w, r, plan.remotes, id)
			return
		}
		s.writeFetchError(w, id, err)
		return
	}

	var req AnalyzeRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, "reading body: %v", err)
		return
	}
	if len(body) > 0 {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, "request: %v", err)
			return
		}
	}
	opts, err := req.engineOptions()
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeUnknownAnalysis, "%v", err)
		return
	}

	b, hit, err := s.analyzedBytes(r.Context(), tr, req.cacheKey(id), opts)
	if err == nil && hit {
		w.Header().Set("X-Memgazed-Cache", "hit")
	}
	s.writeAnalysisResult(w, b, err)
}

// analyzedBytes returns the marshalled Report of tr under key — the
// result-cache lookup, miss accounting, and singleflight execution
// shared by the analyze and diff paths. hit reports a cache hit; ctx
// bounds only this caller's wait (the leader's work is detached, as
// always with the flight group).
func (s *Server) analyzedBytes(ctx context.Context, tr *trace.Trace, key string, opts []engine.Option) (b []byte, hit bool, err error) {
	if b, ok := s.results.Get(key); ok {
		s.metrics.cacheHits.Add(1)
		return b, true, nil
	}
	s.metrics.cacheMisses.Add(1)
	b, err, joined := s.flights.Do(ctx, key, func() ([]byte, error) {
		return s.runAnalysis(tr, key, opts)
	})
	if joined {
		s.metrics.coalesced.Add(1)
	}
	return b, false, err
}

// writeAnalysisResult maps an analysis or diff outcome onto the wire:
// the JSON bytes on success, the shared error taxonomy otherwise.
func (s *Server) writeAnalysisResult(w http.ResponseWriter, b []byte, err error) {
	var re *relayError
	var pe *peerDownError
	switch {
	case err == nil:
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	case errors.As(err, &re):
		// A proxied analysis the owner answered with an error: the
		// owner's envelope is the answer, replayed verbatim.
		re.write(w)
	case errors.As(err, &pe):
		s.writePeerUnavailable(w, pe.peer, pe.cause)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, ErrCodeDeadlineExceeded, "analysis exceeded %v", s.cfg.RequestTimeout)
	case errors.Is(err, context.Canceled):
		// Client went away or the server is closing; nothing useful to
		// say to the former, 503 for the latter.
		writeError(w, http.StatusServiceUnavailable, ErrCodeCancelled, "analysis cancelled")
	default:
		writeError(w, http.StatusInternalServerError, ErrCodeInternal, "analysis: %v", err)
	}
}

// runAnalysis is the singleflight leader's work: run one engine suite
// on the shared worker pool under the server-scoped request timeout,
// marshal the Report, and populate the result cache. It is detached
// from any single client request, so a coalesced group keeps its
// computation even if the first requester disconnects.
func (s *Server) runAnalysis(tr *trace.Trace, key string, opts []engine.Option) ([]byte, error) {
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.RequestTimeout)
	defer cancel()

	opts = append(opts, engine.WithObserver(func(a engine.Analysis, d time.Duration) {
		s.metrics.ObserveAnalysis(a.String(), d)
	}))
	if s.cfg.EngineParallelism > 0 {
		opts = append(opts, engine.WithParallelism(s.cfg.EngineParallelism))
	}
	if s.cfg.SweepShards != 0 {
		opts = append(opts, engine.WithSweepShards(s.cfg.SweepShards))
	}

	var rep *engine.Report
	var err error
	done := make(chan struct{})
	job := func() {
		defer close(done)
		if s.hookAnalyzeStart != nil {
			s.hookAnalyzeStart()
		}
		rep, err = engine.New(tr, opts...).Run(ctx)
	}
	select {
	case s.jobs <- job:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.quit:
		return nil, context.Canceled
	}
	<-done // the engine honours ctx, so this returns promptly after expiry
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("marshalling report: %w", err)
	}
	s.results.Put(key, b)
	return b, nil
}
