package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/memgaze/memgaze-go/internal/cluster"
)

const (
	ctypePT = "application/x-memgaze-pt"

	// warmupOps run before timing starts, checked like the rest: the
	// first requests pay for connection set-up and the daemon's lazy
	// initialisation.
	warmupOps = 3
	// measuredOps and ingestOps are cold_analyze's and ingest_stream's
	// measured operation counts. They are fixed, never derived from
	// speed, so a slower or faster machine changes a run's length and
	// never its memory or disk figures. cold_analyze's 100 give op_p90_ms
	// ten samples beyond it; an ingest_stream op costs about twice a
	// cold_analyze op, so it runs fewer to keep the driver's 22 runs per
	// workload within its time limit on a slow host.
	measuredOps = 100
	ingestOps   = 80
	// setupReps is how many times a run sets its daemon up; setup_s is
	// the median. A daemon starts in a few milliseconds, so many set-ups
	// keep one slow start from moving the median.
	setupReps = 21

	// The ring probe of cold_analyze's traced run: a ring of
	// ringReplicas at replication 2 holding the replayed captures, each
	// primed with ringAnalyze on every replica, then asked for it again
	// ringHits times through one of ringVantages replicas.
	ringReplicas = 3
	ringVantages = 2
	ringAnalyze  = `{"analyses":["functions","mrc"]}`
	ringHits     = 500
)

// config is one benchmark run's settings.
type config struct {
	workload string
	bin      string // memgazed binary
	work     string // scratch directory inside the checkout
	seed     uint64
	traced   bool
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	firstErr          error

	setup     []float64 // seconds per set-up
	lat       []float64 // ms per measured op (untraced ops in a traced run)
	latTraced []float64 // ms per traced op
	records   int64     // records the ops in lat carried
	rssMB     float64
	diskBytes int64
	stored    int64 // records uploaded to the daemon

	tr     *tracer
	layers map[string]float64 // per-layer metrics of a traced run
}

// check counts one checked operation.
func (o *outcome) check(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if o.firstErr == nil {
			o.firstErr = err
		}
	}
}

// opFunc runs operation i (an index into the run's inputs). It returns
// an error if a request failed, and otherwise verify, which checks the
// replies and returns the records the operation carried. verify runs
// after the clock stops, so the latency holds only the requests. tr is
// nil for untraced operations.
type opFunc func(i int, tr *tracer) (verify func() (records int, err error), err error)

// runOp runs and verifies one operation, returning its latency in ms.
func (o *outcome) runOp(op opFunc, i int, tr *tracer) (ms float64, records int) {
	t0 := time.Now()
	verify, err := op(i, tr)
	ms = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err == nil {
		records, err = verify()
	}
	o.check(err)
	return ms, records
}

// measure runs the warm-up and then n timed operations. In a traced run
// every other operation is traced, so traced and untraced latencies come
// from the same daemon state and their medians give the tracing
// overhead.
func (cfg *config) measure(o *outcome, n int, op opFunc) {
	// The client has one request in flight, so it needs one P. With more,
	// its idle Ps spin on every wake-up and take CPU from the daemon on a
	// 2-CPU host. The traced run's in-process replay comes after this and
	// runs at the full GOMAXPROCS.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < warmupOps; i++ {
		_, recs := o.runOp(op, i, nil)
		o.stored += int64(recs)
	}
	for i := 0; i < n; i++ {
		var tr *tracer
		if cfg.traced && i%2 == 0 {
			tr = o.tr
		}
		ms, recs := o.runOp(op, warmupOps+i, tr)
		o.stored += int64(recs)
		if tr != nil {
			o.latTraced = append(o.latTraced, ms)
		} else {
			o.lat = append(o.lat, ms)
			o.records += int64(recs)
		}
	}
}

// uploadInfo is the part of the upload reply the benchmark checks.
type uploadInfo struct {
	ID      string `json:"id"`
	Records int    `json:"records"`
	Existed *bool  `json:"existed"`
}

// checkUpload verifies a fresh-upload reply: 201, no existed field, and
// a Location naming the body's id.
func checkUpload(r response) (uploadInfo, error) {
	var info uploadInfo
	if r.status != http.StatusCreated {
		return info, fmt.Errorf("upload: status %d: %s", r.status, trim(r.body))
	}
	if err := json.Unmarshal(r.body, &info); err != nil {
		return info, fmt.Errorf("upload: %w", err)
	}
	if info.Existed != nil {
		return info, fmt.Errorf("upload %s: existed=%v on fresh content", info.ID, *info.Existed)
	}
	if loc := r.header.Get("Location"); info.ID == "" || loc != "/v1/traces/"+info.ID {
		return info, fmt.Errorf("upload: Location %q does not name id %q", loc, info.ID)
	}
	return info, nil
}

func trim(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200] + "…"
	}
	return s
}

// generate makes n captures of the run's seed, before anything is
// timed.
func (cfg *config) generate(n int) ([][]byte, error) {
	out := make([][]byte, n)
	for i := range out {
		b, err := genCapture(cfg.seed, i)
		if err != nil {
			return nil, fmt.Errorf("generating capture %d: %w", i, err)
		}
		out[i] = b
	}
	// Collect the generator's garbage now, so the benchmark's own
	// collector does not run while set-ups or operations are timed.
	runtime.GC()
	return out, nil
}

// startSingle sets up one daemon setupReps times, each on a fresh data
// directory, and keeps the last. Stopping the previous daemon and
// removing its data directory happen before the clock starts.
func (cfg *config) startSingle(o *outcome) (*daemon, error) {
	var d *daemon
	dir := filepath.Join(cfg.work, "data")
	for rep := 0; rep < setupReps; rep++ {
		d.stop()
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		d, err = startDaemon(cfg.bin, "127.0.0.1:0", dir)
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	return d, nil
}

// finish reads the daemons' memory and disk figures after the measured
// operations.
func (o *outcome) finish(f fleet) error {
	var err error
	if o.rssMB, err = f.peakRSSMB(); err != nil {
		return err
	}
	o.diskBytes, err = f.diskBytes()
	return err
}

// cacheRatio is the result-cache hit ratio between two counter
// readings; 0 when nothing was looked up.
func cacheRatio(h0, m0, h1, m1 float64) float64 {
	if h1+m1-h0-m0 == 0 {
		return 0
	}
	return (h1 - h0) / (h1 + m1 - h0 - m0)
}

// runSingle is the shape both single-daemon workloads share: set the
// daemon up, generate the inputs, run ops measured operations made by
// newOp, and in a traced run read the cache ratio and replay the first
// inputs in process.
func runSingle(cfg *config, o *outcome, c *client, ops int, newOp func(d *daemon, caps [][]byte) opFunc,
	replay func(*config, *outcome, [][]byte) error) error {
	d, err := cfg.startSingle(o)
	defer d.stop()
	if err != nil {
		return err
	}
	caps, err := cfg.generate(warmupOps + ops)
	if err != nil {
		return err
	}
	h0, m0, err := c.cacheCounters(fleet{d})
	if err != nil {
		return err
	}
	cfg.measure(o, ops, newOp(d, caps))
	if err := o.finish(fleet{d}); err != nil {
		return err
	}
	if !cfg.traced {
		return nil
	}
	h1, m1, err := c.cacheCounters(fleet{d})
	if err != nil {
		return err
	}
	o.layers["server.cache_hit_ratio"] = cacheRatio(h0, m0, h1, m1)
	return replay(cfg, o, caps[warmupOps:warmupOps+replayOps])
}

// runCold is cold_analyze: each op uploads a fresh capture to one
// durable daemon and runs the default suite on it, a result-cache miss.
func runCold(cfg *config, o *outcome, c *client) error {
	var reportBytes []float64
	err := runSingle(cfg, o, c, measuredOps, func(d *daemon, caps [][]byte) opFunc {
		return func(i int, tr *tracer) (func() (int, error), error) {
			root := tr.begin("op", -1, i)
			defer tr.end(root)
			sp := tr.begin("server.upload", root, i)
			up, err := c.do(http.MethodPost, d.url()+"/v1/traces", ctypePT, bytes.NewReader(caps[i]))
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			// The analyze request needs the new trace's id, so the upload's
			// status and Location are read inside the timed part; the rest
			// of the checks wait for verify.
			id, ok := strings.CutPrefix(up.header.Get("Location"), "/v1/traces/")
			if up.status != http.StatusCreated || !ok {
				_, err := checkUpload(up)
				return nil, err
			}
			sp = tr.begin("server.analyze_miss", root, i)
			r, err := c.do(http.MethodPost, d.url()+"/v1/traces/"+id+"/analyze", "application/json", strings.NewReader("{}"))
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			return func() (int, error) {
				info, err := checkUpload(up)
				if err != nil {
					return 0, err
				}
				if r.status != http.StatusOK {
					return 0, fmt.Errorf("analyze %s: status %d: %s", info.ID, r.status, trim(r.body))
				}
				if r.header.Get("X-Memgazed-Cache") == "hit" {
					return 0, fmt.Errorf("analyze %s: cache hit on fresh content", info.ID)
				}
				var rep struct{ Records int }
				if err := json.Unmarshal(r.body, &rep); err != nil {
					return 0, fmt.Errorf("analyze %s: %w", info.ID, err)
				}
				if rep.Records != info.Records {
					return 0, fmt.Errorf("analyze %s: report has %d records, upload had %d", info.ID, rep.Records, info.Records)
				}
				if tr != nil {
					reportBytes = append(reportBytes, float64(len(r.body)))
				}
				return info.Records, nil
			}, nil
		}
	}, func(cfg *config, o *outcome, caps [][]byte) error {
		if err := replayCold(cfg, o, caps); err != nil {
			return err
		}
		return probeRing(cfg, o, c, caps)
	})
	o.layers["server.report_bytes"] = median(reportBytes)
	return err
}

// runIngest is ingest_stream: each op streams a fresh capture to one
// durable daemon with chunked PUT. Nothing is analysed.
func runIngest(cfg *config, o *outcome, c *client) error {
	return runSingle(cfg, o, c, ingestOps, func(d *daemon, caps [][]byte) opFunc {
		return func(i int, tr *tracer) (func() (int, error), error) {
			root := tr.begin("op", -1, i)
			defer tr.end(root)
			sp := tr.begin("server.stream", root, i)
			r, err := c.do(http.MethodPut, d.url()+"/v1/traces:stream", ctypePT, streamed(caps[i]))
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			return func() (int, error) {
				info, err := checkUpload(r)
				return info.Records, err
			}, nil
		}
	}, replayIngest)
}

// replicaDir is ring replica i's data directory.
func (cfg *config) replicaDir(i int) string {
	return filepath.Join(cfg.work, fmt.Sprintf("ring%d", i))
}

// ring is a running replica set with its primed corpus.
type ring struct {
	daemons fleet
	ids     []string
	primed  [ringReplicas][][]byte // each replica's priming reply per trace
}

// startRing starts the replicas, uploads the corpus round-robin across
// them (each upload fans out to the trace's two owners, traced as
// cluster.upload_replicated) and primes the analysis on every replica.
func (cfg *config) startRing(c *client, caps [][]byte, tr *tracer) (*ring, error) {
	addrs := make([]string, ringReplicas)
	for i := range addrs {
		a, err := freePort()
		if err != nil {
			return nil, err
		}
		addrs[i] = a
		if err := os.RemoveAll(cfg.replicaDir(i)); err != nil {
			return nil, err
		}
	}
	rg := &ring{}
	for i, a := range addrs {
		d, err := startDaemon(cfg.bin, a, cfg.replicaDir(i),
			"-peers", strings.Join(addrs, ","), "-advertise", a, "-replication", "2",
			// No replica fails here, so anti-entropy has nothing to do;
			// leaving it on would put a background round at a random
			// point of the probe.
			"-repair-interval", "-1s")
		if err != nil {
			rg.daemons.stop()
			return nil, err
		}
		rg.daemons = append(rg.daemons, d)
	}
	for k, b := range caps {
		sp := tr.begin("cluster.upload_replicated", -1, k)
		r, err := c.do(http.MethodPost, rg.daemons[k%ringReplicas].url()+"/v1/traces", ctypePT, bytes.NewReader(b))
		tr.end(sp)
		if err == nil {
			var info uploadInfo
			info, err = checkUpload(r)
			rg.ids = append(rg.ids, info.ID)
		}
		if err != nil {
			rg.daemons.stop()
			return nil, err
		}
	}
	for v, d := range rg.daemons {
		for _, id := range rg.ids {
			r, err := c.do(http.MethodPost, d.url()+"/v1/traces/"+id+"/analyze", "application/json", strings.NewReader(ringAnalyze))
			if err == nil && r.status != http.StatusOK {
				err = fmt.Errorf("priming %s on replica %d: status %d: %s", id, v, r.status, trim(r.body))
			}
			if err != nil {
				rg.daemons.stop()
				return nil, err
			}
			rg.primed[v] = append(rg.primed[v], r.body)
		}
	}
	return rg, nil
}

// probeRing is the ring part of cold_analyze's traced run. It measures
// what the measured operations never reach: a result-cache hit
// (server.analyze_hit), the proxy hop and the upload fan-out. Every
// hit is checked: 200, the hit header, and a body byte-identical to
// that replica's priming reply.
func probeRing(cfg *config, o *outcome, c *client, caps [][]byte) error {
	tr := o.tr
	c.close()
	rg, err := cfg.startRing(c, caps, tr)
	if err != nil {
		return err
	}
	defer rg.daemons.stop()
	rng := rand.New(rand.NewPCG(cfg.seed, 0x72696e67))
	body := []byte(ringAnalyze)
	for i := 0; i < ringHits; i++ {
		k, v := rng.IntN(len(rg.ids)), rng.IntN(ringVantages)
		sp := tr.begin("server.analyze_hit", -1, i)
		r, err := c.do(http.MethodPost, rg.daemons[v].url()+"/v1/traces/"+rg.ids[k]+"/analyze", "application/json", bytes.NewReader(body))
		tr.end(sp)
		if err == nil && (r.status != http.StatusOK || r.header.Get("X-Memgazed-Cache") != "hit") {
			err = fmt.Errorf("analyze %s via replica %d: status %d, cache %q", rg.ids[k], v, r.status, r.header.Get("X-Memgazed-Cache"))
		}
		if err == nil && !bytes.Equal(r.body, rg.primed[v][k]) {
			err = fmt.Errorf("analyze %s via replica %d: reply differs from the primed report", rg.ids[k], v)
		}
		o.check(err)
	}
	return probeCluster(cfg, o, c, rg, caps)
}

// probeReps is how many times each cluster probe request repeats.
const probeReps = 5

// probeCluster measures the proxy hop and the upload fan-out of the
// ring: GET /v1/traces/{id} through a non-owner minus through an owner,
// and a replicated upload (the set-up's, traced) minus the same upload
// to a single standalone daemon.
func probeCluster(cfg *config, o *outcome, c *client, rg *ring, caps [][]byte) error {
	tr := o.tr
	peers := make([]string, len(rg.daemons))
	for i, d := range rg.daemons {
		peers[i] = cluster.Normalize(d.addr)
	}
	for k, id := range rg.ids {
		owners := cluster.Owners(peers, id, 2)
		for v, d := range rg.daemons {
			name := "cluster.get_nonowner"
			for _, ow := range owners {
				if ow == peers[v] {
					name = "cluster.get_owner"
				}
			}
			for rep := 0; rep < probeReps; rep++ {
				sp := tr.begin(name, -1, k)
				r, err := c.do(http.MethodGet, d.url()+"/v1/traces/"+id, "", nil)
				tr.end(sp)
				if err == nil && r.status != http.StatusOK {
					err = fmt.Errorf("GET %s via replica %d: status %d", id, v, r.status)
				}
				o.check(err)
			}
		}
	}
	o.layers["cluster.proxy_hop_ms"] = median(tr.durations("cluster.get_nonowner")) - median(tr.durations("cluster.get_owner"))

	single, err := startDaemon(cfg.bin, "127.0.0.1:0", filepath.Join(cfg.work, "single"))
	if err != nil {
		return err
	}
	defer single.stop()
	c.close()
	for k, b := range caps {
		sp := tr.begin("cluster.upload_single", -1, k)
		r, err := c.do(http.MethodPost, single.url()+"/v1/traces", ctypePT, bytes.NewReader(b))
		tr.end(sp)
		if err == nil {
			_, err = checkUpload(r)
		}
		o.check(err)
	}
	c.close()
	o.layers["cluster.fanout_ms"] = median(tr.durations("cluster.upload_replicated")) - median(tr.durations("cluster.upload_single"))
	return nil
}

// errNoOps guards the result against a run that measured nothing.
var errNoOps = errors.New("no operation was measured")
