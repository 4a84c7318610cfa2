package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/reorder"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// serve-zipf traffic. On the reference host a miss (ordering, plus
// community detection when quality is on) costs 3–10 ms, a CSRB hit 1–3
// ms end to end, and a MatrixMarket upload adds a 6–12 ms parse to
// either. Larger matrices, whose misses cost tens of ms, capped the ring
// near 50 requests/s: too few samples for steady percentiles in a run.
const (
	servePopulation = 16 // popular matrices: half planted partition, half RMAT
	serveNodes      = 1024
	serveDegree     = 12
	zipfS           = 1.2
	freshShare      = 0.05 // never-seen matrices, so misses continue after warm-up
	autoShare       = 0.15 // technique=auto
	qualityShare    = 0.15 // quality metrics on
	// nominalRPS is the open-loop Poisson rate latencies are measured at;
	// the ladder then multiplies it by ladderSteps.
	nominalRPS = 60.0
	// latencyLimit is the p99 a ladder step must meet; a refused or
	// timed-out request misses it.
	latencyLimit   = 250 * time.Millisecond
	requestTimeout = 5 * time.Second
	nominalShare   = 0.7  // of --seconds; the ladder gets the rest
	warmupShare    = 0.15 // leading share of the nominal phase left out of its latencies
	maxInFlight    = 2048
)

// ladderSteps are the ladder's rates as multiples of nominalRPS: 15%
// apart from 2× up past twice the ring's capacity on the reference host,
// so the knee falls well inside the ladder.
var ladderSteps = func() []float64 {
	steps := []float64{2}
	for len(steps) < 12 {
		steps = append(steps, steps[len(steps)-1]*1.15)
	}
	return steps
}()

// servePeers is one in-process two-peer ring on real loopback listeners.
type servePeers struct {
	urls    []string
	servers []*serve.Server
	https   []*http.Server
	done    []chan struct{}
	client  *http.Client
}

// startPeers starts n peers on loopback listeners. Peers are named
// http://peer-<i>.bench rather than by their ephemeral ports, and the
// shared client dials each name's listener: the consistent-hash ring
// hashes the names, so which peer owns which matrix is the same on
// every run instead of changing with the ports the kernel hands out.
func startPeers(n, workers int) (*servePeers, error) {
	addrs := map[string]string{}
	dialer := &net.Dialer{}
	g := &servePeers{client: &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 512,
			IdleConnTimeout:     30 * time.Second,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				real, ok := addrs[addr]
				if !ok {
					return nil, fmt.Errorf("dial %s: not a benchmark peer", addr)
				}
				return dialer.DialContext(ctx, network, real)
			},
		},
	}}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		name := fmt.Sprintf("peer-%d.bench", i)
		addrs[name+":80"] = ln.Addr().String()
		g.urls = append(g.urls, "http://"+name)
	}
	for i, ln := range lns {
		s := serve.New(serve.Config{
			Workers:       workers,
			Self:          g.urls[i],
			Peers:         append([]string{}, g.urls...),
			ForwardClient: g.client,
		})
		hs := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
		done := make(chan struct{})
		go func(ln net.Listener) {
			defer close(done)
			_ = hs.Serve(ln) // returns ErrServerClosed after stop
		}(ln)
		g.servers = append(g.servers, s)
		g.https = append(g.https, hs)
		g.done = append(g.done, done)
	}
	return g, nil
}

// stop closes every listener and server and waits for the serve loops.
func (g *servePeers) stop() {
	g.client.CloseIdleConnections()
	for _, hs := range g.https {
		hs.Close()
	}
	for _, s := range g.servers {
		s.Close()
	}
	for _, d := range g.done {
		<-d
	}
}

// counters sums the named un-labelled and labelled series over every
// peer's /metrics; a series name matches with or without labels.
func (g *servePeers) counters(names ...string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, u := range g.urls {
		resp, err := g.client.Get(u + "/metrics")
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(raw), "\n") {
			for _, n := range names {
				if strings.HasPrefix(line, n+" ") || strings.HasPrefix(line, n+"{") {
					f := strings.Fields(line)
					v, err := strconv.ParseFloat(f[len(f)-1], 64)
					if err != nil {
						return nil, fmt.Errorf("metrics line %q: %w", line, err)
					}
					out[n] += v
				}
			}
		}
	}
	return out, nil
}

// popMatrix is one matrix of the popularity distribution with both
// upload encodings.
type popMatrix struct {
	m       *sparse.CSR
	mm, bin []byte
}

// request is one scheduled operation of the open loop.
type request struct {
	due     time.Duration // offset from the phase start
	phase   int           // -1 warm-up, 0 nominal, i>0 ladder step i
	async   bool
	binary  bool
	mat     int // population index
	fresh   int // >0 selects a never-seen variant of mat
	auto    bool
	quality bool
}

// key names the request's matrix content.
func (q request) key() string { return fmt.Sprintf("%d/%d", q.mat, q.fresh) }

// outcome is what one request observed.
type outcome struct {
	late, latency time.Duration
	failed        bool
	status        int
	hit           bool
	forwarded     bool // the receiving peer proxied it to the matrix's owner
	technique     string
	valid         bool // the permutation is a bijection
	permHash      uint64
}

// schedule builds the whole open-loop timetable from the seed: a warm-up
// and nominal phase at nominalRPS, then each ladder rate for stepDur. Arrivals are
// Poisson, with gaps rescaled so each phase holds exactly rate × duration
// requests and the counts never vary between seeds.
func schedule(seed uint64, nominalDur, stepDur time.Duration) []request {
	r := gen.NewRNG(seed ^ 0x243f6a8885a308d3)
	var out []request
	var offset time.Duration
	phase := func(id int, rate float64, dur time.Duration) {
		n := int(rate * dur.Seconds())
		gaps := make([]float64, n)
		var sum float64
		for i := range gaps {
			gaps[i] = -math.Log(1 - r.Float64())
			sum += gaps[i]
		}
		t := offset
		for i, g := range gaps {
			t += time.Duration(g / sum * float64(dur))
			// Two thirds MatrixMarket, one third CSRB, each half sync and
			// half async. With equal format shares the median would sit on
			// the gap between cheap CSRB hits and MatrixMarket parses and
			// jump between them from run to run.
			q := request{due: t, phase: id, async: i%2 == 1, binary: i%6 >= 4}
			if id == 0 && t-offset < time.Duration(warmupShare*float64(dur)) {
				q.phase = -1
			}
			q.auto = r.Float64() < autoShare
			q.quality = r.Float64() < qualityShare
			q.mat = int(r.Zipf(servePopulation, zipfS))
			if r.Float64() < freshShare {
				q.fresh = len(out) + 1
			}
			out = append(out, q)
		}
		offset += dur
	}
	phase(0, nominalRPS, nominalDur)
	for i, f := range ladderSteps {
		phase(i+1, nominalRPS*f, stepDur)
	}
	return out
}

// body returns the upload for the request. A fresh variant rewrites the
// last stored value to 1000+fresh, which changes the digest but not the
// structure, so the cost of a miss is the same as the base matrix's.
func (q request) body(pop []popMatrix) []byte {
	p := pop[q.mat]
	if q.binary {
		b := append([]byte(nil), p.bin...)
		if q.fresh > 0 {
			bits := math.Float32bits(float32(1000 + q.fresh))
			n := len(b)
			b[n-4], b[n-3], b[n-2], b[n-1] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
		}
		return b
	}
	if q.fresh == 0 {
		return p.mm
	}
	// Replace the value of the last "row col value" line.
	last := bytes.LastIndexByte(p.mm[:len(p.mm)-1], '\n') + 1
	f := strings.Fields(string(p.mm[last:]))
	b := append([]byte(nil), p.mm[:last]...)
	return append(b, fmt.Sprintf("%s %s %d\n", f[0], f[1], 1000+q.fresh)...)
}

func (q request) query() string {
	tech := "RABBIT%2B%2B"
	if q.auto {
		tech = "auto"
	}
	quality := "off"
	if q.quality {
		quality = "on"
	}
	return "?technique=" + tech + "&quality=" + quality
}

// reply is the part of a /reorder or /jobs response the benchmark reads.
type reply struct {
	Technique   string  `json:"technique"`
	Cached      bool    `json:"cached"`
	Permutation []int32 `json:"permutation"`
	// Job API fields.
	JobID    string `json:"job_id"`
	Status   string `json:"status"`
	StoreHit bool   `json:"store_hit"`
	Error    string `json:"error"`
	Result   *reply `json:"result"`

	forwarded bool // the response carried the owner header of a proxied request
}

func fetch(c *http.Client, method, url, ctype string, body []byte) (int, *reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var r reply
	if err := json.Unmarshal(raw, &r); err != nil {
		return resp.StatusCode, nil, err
	}
	r.forwarded = resp.Header.Get("X-Reorderd-Owner") != ""
	return resp.StatusCode, &r, nil
}

// do sends one request and waits for its permutation: sync requests
// block on /reorder, async ones submit to /jobs and long-poll the job.
func do(b *bench, g *servePeers, base string, q request, body []byte, parent int, reqID int64) (int, *reply, error) {
	ctype := "text/plain"
	if q.binary {
		ctype = sparse.BinaryCSRContentType
	}
	if !q.async {
		id := b.tr.begin("serve.sync", parent, reqID)
		defer b.tr.end(id)
		return fetch(g.client, http.MethodPost, base+"/reorder"+q.query(), ctype, body)
	}
	id := b.tr.begin("serve.async", parent, reqID)
	defer b.tr.end(id)
	sub := b.tr.begin("serve.submit", id, reqID)
	status, r, err := fetch(g.client, http.MethodPost, base+"/jobs"+q.query(), ctype, body)
	b.tr.end(sub)
	if err != nil {
		return status, nil, err
	}
	// A new job is admitted with 202; 200 means the job or its result
	// already existed.
	hit, forwarded := status == http.StatusOK, r.forwarded
	for r.Status == "queued" || r.Status == "running" {
		poll := b.tr.begin("serve.poll", id, reqID)
		status, r, err = fetch(g.client, http.MethodGet, base+"/jobs/"+r.JobID+"?wait=2000", "", nil)
		b.tr.end(poll)
		if err != nil {
			return status, nil, err
		}
	}
	if r.Status != "done" || r.Result == nil {
		return status, nil, fmt.Errorf("job %s ended %q: %s", r.JobID, r.Status, r.Error)
	}
	r.Result.Cached, r.Result.forwarded = hit, forwarded
	return status, r.Result, nil
}

// loadRun is one open-loop pass over the schedule.
type loadRun struct {
	wall     time.Duration // until the last nominal-phase request finished
	rssMB    float64       // peak RSS when the nominal phase ended
	outcomes []outcome
	deltas   map[string]float64
}

var serveCounters = []string{
	"reorderd_forwards_total", "reorderd_dedup_waits_total", "reorderd_job_seconds_sum",
}

// runLoad replays the schedule against the ring. Requests start at their
// due time whatever the state of earlier ones (open loop), and latency
// counts from the due time. Pairs of requests alternate between the
// peers, so sync and async requests both reach each peer equally and
// half of the async ones are forwarded whichever peer owns a matrix.
// Past maxInFlight a request is refused by the client and counts as
// failed.
func runLoad(b *bench, g *servePeers, pop []popMatrix, sched []request, parent int) (*loadRun, error) {
	before, err := g.counters(serveCounters...)
	if err != nil {
		return nil, err
	}
	lr := &loadRun{outcomes: make([]outcome, len(sched))}
	var wg sync.WaitGroup
	var mu sync.Mutex
	inFlight, nominal := 0, true
	start := time.Now()
	for i, q := range sched {
		if wait := q.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		if nominal && q.phase > 0 {
			lr.rssMB, nominal = peakRSSMB(), false
		}
		late := time.Since(start) - q.due
		mu.Lock()
		if inFlight >= maxInFlight {
			mu.Unlock()
			lr.outcomes[i] = outcome{late: late, failed: true, latency: requestTimeout}
			continue
		}
		inFlight++
		mu.Unlock()
		wg.Add(1)
		go func(i int, q request, late time.Duration) {
			defer wg.Done()
			o := outcome{late: late}
			status, r, err := do(b, g, g.urls[i/2%len(g.urls)], q, q.body(pop), parent, int64(i+1))
			o.latency = time.Since(start) - q.due
			o.status = status
			if err != nil {
				o.failed = true
				o.latency = max(o.latency, requestTimeout)
			} else {
				o.hit, o.forwarded = r.Cached, r.forwarded
				o.technique, o.valid = r.Technique, validPerm(r.Permutation)
				o.permHash = hashPerm(r.Permutation)
			}
			mu.Lock()
			lr.outcomes[i] = o
			inFlight--
			mu.Unlock()
		}(i, q, late)
	}
	wg.Wait()
	for i, q := range sched {
		if q.phase <= 0 {
			lr.wall = max(lr.wall, q.due+lr.outcomes[i].latency)
		}
	}
	after, err := g.counters(serveCounters...)
	if err != nil {
		return nil, err
	}
	lr.deltas = map[string]float64{}
	for _, n := range serveCounters {
		lr.deltas[n] = after[n] - before[n]
	}
	return lr, nil
}

func hashPerm(p []int32) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 4*len(p))
	for i, v := range p {
		buf[4*i], buf[4*i+1], buf[4*i+2], buf[4*i+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	h.Write(buf)
	return h.Sum64()
}

// serveSetup generates the population and starts the ring.
func serveSetup(b *bench, parent int) ([]popMatrix, *servePeers, float64, float64, error) {
	pop := make([]popMatrix, servePopulation)
	var nnz int
	genD := b.tr.timed("gen", parent, func() {
		for i := range pop {
			seed := b.seed*1000 + uint64(i)
			if i%2 == 0 {
				pop[i].m = gen.PlantedPartition{Nodes: serveNodes, Communities: serveNodes / 64, AvgDegree: serveDegree, Mu: 0.15}.Generate(seed)
			} else {
				pop[i].m = gen.RMAT{LogNodes: 10, AvgDegree: serveDegree, A: 0.57, B: 0.19, C: 0.19, Symmetric: true}.Generate(seed)
			}
			nnz += pop[i].m.NNZ()
		}
	})
	for i := range pop {
		var mm, bin bytes.Buffer
		if err := sparse.WriteMatrixMarket(&mm, pop[i].m); err != nil {
			return nil, nil, 0, 0, err
		}
		if err := sparse.WriteBinaryCSR(&bin, pop[i].m); err != nil {
			return nil, nil, 0, 0, err
		}
		pop[i].mm, pop[i].bin = mm.Bytes(), bin.Bytes()
	}
	workers := max(1, b.workers/2)
	var g *servePeers
	var err error
	b.tr.timed("serve.start", parent, func() { g, err = startPeers(2, workers) })
	return pop, g, genD.Seconds(), float64(nnz), err
}

func serveZipf(b *bench) error {
	nominalDur := time.Duration(nominalShare * b.seconds * float64(time.Second))
	stepDur := time.Duration((1 - nominalShare) * b.seconds / float64(len(ladderSteps)) * float64(time.Second))
	sched := schedule(b.seed, nominalDur, stepDur)

	var pop []popMatrix
	var g *servePeers
	var genS, genNNZ float64
	release := func() {
		if g != nil {
			g.stop()
		}
		pop, g = nil, nil
	}
	if err := b.setUp(5, release, func(root int) error {
		var err error
		pop, g, genS, genNNZ, err = serveSetup(b, root)
		return err
	}); err != nil {
		return err
	}
	defer func() { g.stop() }()

	lr, err := tracedPhase(b, func(parent int) (*loadRun, error) {
		if parent >= 0 {
			// The traced repetition needs a cold ring like the first one.
			g.stop()
			var err error
			if g, err = startPeers(2, max(1, b.workers/2)); err != nil {
				return nil, err
			}
		}
		return runLoad(b, g, pop, sched, parent)
	}, func(lr *loadRun) time.Duration { return lr.wall })
	if err != nil {
		return err
	}

	var nominal, syncL, asyncL, late []float64
	sent := float64(len(sched)) // the whole ladder is always sent
	var hits, ok, shed float64
	for i, q := range sched {
		o := lr.outcomes[i]
		late = append(late, ms(o.late))
		if o.status == http.StatusTooManyRequests {
			shed++
		}
		if !o.failed {
			ok++
			if o.hit {
				hits++
			}
		}
		// Ladder requests past the capacity are meant to miss the limit;
		// only warm-up and nominal requests count as operations that can
		// fail.
		if q.phase <= 0 {
			b.attempted++
			if o.failed {
				b.fail("serve-zipf: request %d failed at the nominal rate (status %d)", i, o.status)
			}
		}
		if q.phase != 0 {
			continue
		}
		nominal = append(nominal, ms(o.latency))
		if q.async {
			asyncL = append(asyncL, ms(o.latency))
		} else {
			syncL = append(syncL, ms(o.latency))
		}
	}
	p10 := printClasses(sched, lr)
	p50, p90, p99 := median(nominal), quantile(nominal, 0.9), quantile(nominal, 0.99)
	b.e2e["latency_ms"] = p10
	b.e2e["peak_rss_mb"] = lr.rssMB
	b.e2e["ops_per_s"] = maxRate(lr, sched, nominalDur, stepDur)
	fmt.Printf("serve-zipf: %d nominal requests at %.0f/s, all: p50 %.2f ms, p90 %.2f ms, p99 %.2f ms; local MatrixMarket hits: p10 %.2f ms; capacity %.1f/s, hit ratio %.3f\n",
		len(nominal), nominalRPS, p50, p90, p99, p10, b.e2e["ops_per_s"], hits/ok)

	rep := checkServe(b, pop, sched, lr)
	if b.tr == nil {
		return nil
	}
	L := b.layer
	L["gen.s"], L["gen.nnz"] = genS, genNNZ
	L["serve.sync_ms"], L["serve.async_ms"] = median(syncL), median(asyncL)
	L["serve.p50_ms"], L["serve.p90_ms"], L["serve.p99_ms"] = p50, p90, p99
	L["serve.store_hit_ratio"], L["serve.store_hit_base"] = hits/ok, ok
	L["serve.forward_ratio"], L["serve.forward_base"] = lr.deltas["reorderd_forwards_total"]/sent, sent
	L["serve.shed_ratio"], L["serve.shed_base"] = shed/sent, sent
	L["serve.dedup_waits"] = lr.deltas["reorderd_dedup_waits_total"]
	L["serve.job_busy_s"] = lr.deltas["reorderd_job_seconds_sum"]
	L["serve.gen_late_ms"] = quantile(late, 0.99)
	replayServe(b, pop, sched, lr, rep)
	return nil
}

// maxRate is serve_max_rps: the ring's capacity, measured as the rate at
// which ladder requests complete once the ring is saturated. Saturation
// starts at the end of the last ladder step that ended without a backlog
// (by Little's law, a step whose requests meet the limit holds at most
// rate × latencyLimit requests in flight; more means the ring has fallen
// behind the offered rate), and the ladder rises past the capacity, so
// from then on the ring works through a growing queue and completes
// requests as fast as it can until the last one is done. If even the last
// step ended without a backlog, the span is that step alone, and the
// figure is its offered rate.
func maxRate(lr *loadRun, sched []request, nominalDur, stepDur time.Duration) float64 {
	inFlight := func(t time.Duration) int {
		n := 0
		for i, q := range sched {
			if q.due <= t && t < q.due+lr.outcomes[i].latency {
				n++
			}
		}
		return n
	}
	start := nominalDur // no step kept up
	for p := len(ladderSteps); p >= 1; p-- {
		end := nominalDur + time.Duration(p)*stepDur
		if n := inFlight(end); float64(n) <= nominalRPS*ladderSteps[p-1]*latencyLimit.Seconds() {
			start = end
			if p == len(ladderSteps) {
				start -= stepDur
			}
			fmt.Printf("serve-zipf: ladder kept up through %.0f/s (%d in flight at its end)\n", nominalRPS*ladderSteps[p-1], n)
			break
		}
	}
	var done int
	var last time.Duration
	for i, q := range sched {
		o := lr.outcomes[i]
		if q.phase < 1 || o.failed {
			continue
		}
		if end := q.due + o.latency; end >= start {
			done++
			last = max(last, end)
		}
	}
	if last <= start {
		return 0
	}
	return float64(done) / (last - start).Seconds()
}

// printClasses prints nominal-phase latency by request class as context
// and returns serve-zipf's latency_ms: the 10th percentile latency of
// MatrixMarket hits served by the peer that received them. The whole
// nominal mix has several peaks (hit or miss, format, forwarded or not)
// whose shares follow the seed's draws and which matrices each peer owns,
// so a percentile of the mix jumps between peaks from run to run; this
// class has one peak (sync and async hits cost the same). Time stolen by
// other guests of a shared host delays most requests of a run, so the
// class's median follows the host's load; its 10th percentile, the
// requests that ran undisturbed, follows the program's own cost.
func printClasses(sched []request, lr *loadRun) float64 {
	classes := map[string][]float64{}
	var localMMHits []float64
	for i, q := range sched {
		o := lr.outcomes[i]
		if q.phase != 0 || o.failed {
			continue
		}
		c := fmt.Sprintf("async=%v binary=%v hit=%v forwarded=%v", q.async, q.binary, o.hit, o.forwarded)
		classes[c] = append(classes[c], ms(o.latency))
		if !q.binary && o.hit && !o.forwarded {
			localMMHits = append(localMMHits, ms(o.latency))
		}
	}
	names := make([]string, 0, len(classes))
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		l := classes[c]
		fmt.Printf("serve-zipf: nominal %s: %d requests, p50 %.2f ms, p90 %.2f ms\n", c, len(l), median(l), quantile(l, 0.9))
	}
	return quantile(localMMHits, 0.1)
}

// serveReplay is what the output check learned, reused by the replay.
type serveReplay struct {
	local map[string]time.Duration // key|technique → local Order time
	nnz   map[string]int
}

// checkServe verifies, after timing, that each request was served with the
// technique it asked for (for technique=auto, the advisor's choice for the
// matrix) and that every returned permutation is a valid bijection equal
// to a local Order of the same matrix with that technique.
func checkServe(b *bench, pop []popMatrix, sched []request, lr *loadRun) *serveReplay {
	rep := &serveReplay{local: map[string]time.Duration{}, nnz: map[string]int{}}
	hashes := map[string]uint64{}  // key|technique → local permutation hash
	advised := map[string]string{} // key → the advisor's choice
	for i, q := range sched {
		o := lr.outcomes[i]
		if o.failed {
			continue
		}
		b.attempted++
		want := "RABBIT++"
		if q.auto {
			rec, seen := advised[q.key()]
			if !seen {
				rec = advisor.Recommend(advisor.DefaultModel(), advisor.ExtractFeatures(decode(q, pop))).Best()
				advised[q.key()] = rec
			}
			want = rec
		}
		if o.technique != want {
			b.fail("serve-zipf: request %d (%s): served with %q, want %q", i, q.key(), o.technique, want)
			continue
		}
		k := q.key() + "|" + o.technique
		h, seen := hashes[k]
		if !seen {
			tech, err := reorder.ByName(o.technique)
			if err != nil {
				b.fail("serve-zipf: request %d: unknown technique %q", i, o.technique)
				continue
			}
			m := decode(q, pop)
			t0 := time.Now()
			p := tech.Order(m)
			rep.local[k] = time.Since(t0)
			rep.nnz[k] = m.NNZ()
			h = hashPerm(p)
			hashes[k] = h
		}
		if !o.valid || o.permHash != h {
			b.fail("serve-zipf: request %d (%s): permutation differs from local %s order", i, q.key(), o.technique)
		}
	}
	return rep
}

func decode(q request, pop []popMatrix) *sparse.CSR {
	raw := q.body(pop)
	var m *sparse.CSR
	var err error
	if q.binary {
		m, err = sparse.ReadBinaryCSR(bytes.NewReader(raw))
	} else {
		m, err = sparse.ReadMatrixMarket(bytes.NewReader(raw))
	}
	if err != nil {
		panic(fmt.Sprintf("decode a body the benchmark encoded: %v", err))
	}
	return m
}

func validPerm(p []int32) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || int(v) >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// replayServe times the request stages the service runs on each distinct
// body: decoding in both formats, the digest, advisor features
// (technique=auto matrices) and community quality (quality=on matrices).
func replayServe(b *bench, pop []popMatrix, sched []request, lr *loadRun, rep *serveReplay) {
	tr := b.tr
	root := tr.begin("bench.replay", -1, 0)
	defer tr.end(root)
	seen := map[string]bool{}
	var mmMs, binMs, digMs, featMs, qualMs []float64
	for i, q := range sched {
		o := lr.outcomes[i]
		if o.failed {
			continue
		}
		k := fmt.Sprintf("%s|%v|%v|%v", q.key(), q.binary, q.auto, q.quality)
		if seen[k] {
			continue
		}
		seen[k] = true
		raw := q.body(pop)
		var m *sparse.CSR
		if q.binary {
			binMs = append(binMs, ms(tr.timed("sparse.decode_csrb", root, func() { m, _ = sparse.ReadBinaryCSR(bytes.NewReader(raw)) })))
		} else {
			mmMs = append(mmMs, ms(tr.timed("sparse.decode_mm", root, func() { m, _ = sparse.ReadMatrixMarket(bytes.NewReader(raw)) })))
		}
		if m == nil {
			continue
		}
		digMs = append(digMs, ms(tr.timed("sparse.digest", root, func() { m.Digest() })))
		if q.auto {
			featMs = append(featMs, ms(tr.timed("advisor.features", root, func() { advisor.ExtractFeatures(m) })))
		}
		if q.quality {
			qualMs = append(qualMs, ms(tr.timed("quality", root, func() { core.Analyze(m, core.Rabbit(m).Communities) })))
		}
	}
	L := b.layer
	L["sparse.decode_mm.ms"], L["sparse.decode_csrb.ms"] = median(mmMs), median(binMs)
	L["sparse.digest.ms"] = median(digMs)
	L["advisor.features_ms"], L["quality.ms"] = median(featMs), median(qualMs)
	byTech := map[string][2]float64{}
	var total time.Duration
	for k, d := range rep.local {
		tech := k[strings.LastIndexByte(k, '|')+1:]
		v := byTech[tech]
		byTech[tech] = [2]float64{v[0] + float64(d.Nanoseconds()), v[1] + float64(rep.nnz[k])}
		total += d
	}
	L["reorder.s"] = total.Seconds()
	for tech, v := range byTech {
		L[reorderMetric(tech)] = v[0] / v[1]
	}
}
