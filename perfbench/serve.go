package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	lap "repro"
	otrace "repro/internal/obs/trace"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
)

// serve-mixed: lapserved's handler behind a loopback httptest server,
// driven by a closed loop of nproc clients in rounds of three phases.
// Warm requests repeat a pre-computed set of /v1/run requests, so each
// is a memo recall that bypasses the simulator and isolates HTTP/JSON,
// middleware and memo cost. Cold requests send /v1/run of WH1 with a
// fresh seed each, so each computes; sweeps send small /v1/sweep grids
// over the Table III mixes with a fresh seed each. Both add admission,
// the queue and the pool fan-out on top of the simulator.

// Request lengths, per core. Cold runs and sweep cells use lapserved's
// default length (internal/server's defaultAccesses, also lapsim's
// default), so each costs what a request that leaves "accesses" unset
// costs. A warm request is a memo recall whose response has the same
// fields at any length; its short length only keeps the set-up, which
// computes the warm set, short.
const (
	defaultAccesses = 400_000
	warmAccesses    = 20_000
)

// A pass runs in rounds, one per started serveRoundSeconds of its
// duration (5 at 50 s), and each round runs a warm, a cold and a sweep
// phase in turn, so a host disturbance lasting seconds falls on every
// phase in proportion instead of on the whole sample of one.
// maccess_per_s is the median of the rounds' throughputs: a mean over
// the pass moves with a few slow seconds, and over ten runs such a mean
// spread by a third of its median while the cold p50 of the same runs
// stayed within a quarter.
const serveRoundSeconds = 10

func serveRounds(seconds float64) int { return int(math.Ceil(seconds / serveRoundSeconds)) }

// Phase shares of a round, from what each phase's figures need on the
// 2-vCPU reference host (README.md, "Where the serve-mixed sizes come
// from"). A warm request takes about half a millisecond, so a second
// would give enough samples for its p90 and p99, but its latency follows
// host disturbances lasting seconds: with one 5 s warm phase per pass,
// one run in ten read a warm p90 3.5 times the others'. Warm therefore
// gets a fifth of the time, 10 s of a 50 s pass. A cold request takes
// about 0.6 s, so cold gets the largest share and holds about 100
// requests per pass, a tail at or near p90. A round ends with one sweep
// per client, about 2.4 s or a quarter of a round: over 5 rounds, ten
// sweeps for the sweep p50 and the pool's busy fraction.
const warmShare, coldShare = 0.20, 0.55

// A sweep is 2 mixes x 2 policies: the smallest grid with more cells
// than the pool has workers at nproc = 2, so every sweep queues on the
// pool and fans out across it.
var sweepPolicies = []string{"non-inclusive", "LAP"}

// serveConfig is the server.Config that lapserved's default flags
// produce (cmd/lapserved), including its per-request JSON log lines,
// which go to io.Discard instead of stderr.
func serveConfig() server.Config {
	return server.Config{
		Logger:           slog.New(slog.NewJSONHandler(io.Discard, nil)),
		Jobs:             runtime.NumCPU(),
		QueueDepth:       256,
		RequestTimeout:   2 * time.Minute,
		MemoEntries:      4096,
		MaxAccesses:      4_000_000,
		RetryMax:         2,
		RetryBackoff:     50 * time.Millisecond,
		BreakerThreshold: 5,
		BreakerCooldown:  5 * time.Second,
		WatchdogInterval: 15 * time.Second,
	}
}

// Fresh seeds: cold request i and sweep i each get a seed no other
// request of the pass uses, so every one computes.
func warmSeed(seed uint64) uint64              { return seed*1_000_003 + 1 }
func coldSeed(seed uint64, i int64) uint64     { return seed*1_000_003 + 2 + uint64(i) }
func sweepSeed(seed uint64, i int64) uint64    { return seed*1_000_003 + 500_002 + uint64(i) }
func tableIIIMix(i int64) lap.Mix              { t := lap.TableIII(); return t[int(i)%len(t)] }
func runBody(req server.RunRequest) []byte     { b, _ := json.Marshal(req); return b }
func sweepBody(req server.SweepRequest) []byte { b, _ := json.Marshal(req); return b }

func warmRequests(p *pass) []server.RunRequest {
	var out []server.RunRequest
	for _, name := range []string{"WL1", "WL3", "WH1", "WH3"} {
		out = append(out, server.RunRequest{Policy: "LAP", Mix: name, Accesses: p.length(warmAccesses), Seed: warmSeed(p.seed)})
	}
	return out
}

// coldMix is the one Table III mix cold requests run. Rotating over all
// ten made the cold latency distribution multimodal (the mixes differ by
// up to 1.7x in cost), and its median jumped by a fifth between runs.
const coldMix = "WH1"

func coldRequest(p *pass, i int64) server.RunRequest {
	return server.RunRequest{Policy: "LAP", Mix: coldMix, Accesses: p.length(defaultAccesses), Seed: coldSeed(p.seed, i)}
}

func sweepRequest(p *pass, i int64) server.SweepRequest {
	return server.SweepRequest{
		Policies: sweepPolicies,
		Mixes:    []string{tableIIIMix(2 * i).Name, tableIIIMix(2*i + 1).Name},
		Accesses: p.length(defaultAccesses), Seed: sweepSeed(p.seed, i),
	}
}

// serveEnv is one server under test and its clients' connection pool.
type serveEnv struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	warm   [][]byte // warm request bodies
	first  [][]byte // first response to each warm request
}

// newServeEnv builds the server and pre-warms the warm set: server
// construction plus pre-warming is the workload's set-up.
func newServeEnv(p *pass) (*serveEnv, error) {
	srv := server.New(serveConfig())
	e := &serveEnv{srv: srv, ts: httptest.NewServer(srv.Handler())}
	n := runtime.NumCPU()
	e.client = &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxIdleConnsPerHost: n, MaxConnsPerHost: n,
	}}
	for i, req := range warmRequests(p) {
		body := runBody(req)
		resp, _, err := e.post("/v1/run", body)
		if err == nil {
			err = p.checkOutput(fmt.Sprintf("serve-mixed/warm%d", i), digest(resp))
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("pre-warm %s: %w", req.Mix, err)
		}
		e.warm = append(e.warm, body)
		e.first = append(e.first, resp)
	}
	return e, nil
}

func (e *serveEnv) close() {
	e.ts.Close()
	e.srv.Close()
	e.client.CloseIdleConnections()
}

// post sends one request and returns the 200 response body and latency.
func (e *serveEnv) post(path string, body []byte) ([]byte, time.Duration, error) {
	t := time.Now()
	resp, err := e.client.Post(e.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, time.Since(t), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t)
	if err != nil {
		return nil, d, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, d, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, d, nil
}

func (e *serveEnv) get(path string) ([]byte, error) {
	resp, err := e.client.Get(e.ts.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

func (e *serveEnv) stats() (server.StatsResponse, error) {
	var st server.StatsResponse
	b, err := e.get("/v1/stats")
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	return st, err
}

// closedLoop runs nproc clients. Each keeps calling do while more(the
// number of calls it has made) holds; the latencies of the calls that
// succeed are returned, in ms.
func closedLoop(p *pass, more func(calls int) bool, do func() (time.Duration, error)) []float64 {
	var mu sync.Mutex
	var lat []float64
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []float64
			for n := 0; more(n); n++ {
				took, err := do()
				p.op(err)
				if err == nil {
					mine = append(mine, ms(took))
				}
			}
			mu.Lock()
			lat = append(lat, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return lat
}

// forDuration keeps a closedLoop's clients calling until d has passed.
func forDuration(d time.Duration) func(int) bool {
	deadline := time.Now().Add(d)
	return func(int) bool { return time.Now().Before(deadline) }
}

// once lets each of a closedLoop's clients call once.
func once(calls int) bool { return calls == 0 }

// serveLoad is the traffic of one pass and what it measured, gathered
// over the pass's rounds.
type serveLoad struct {
	p   *pass
	env *serveEnv
	ctx context.Context

	// Request indices, unique across the pass, so that every cold
	// request and sweep gets a seed of its own.
	nextWarm, nextCold, nextSweep atomic.Int64

	warm, cold, sweeps []float64 // latencies in ms
	tput               []float64 // Maccess/s of each round's cold and sweep phases

	// Figures of the traced pass's per-layer split.
	warmRecalled, warmLookups uint64
	coldComputed              uint64
	queueWait                 map[float64]float64 // queue-wait bucket counts gained in cold phases
	sweepWall                 time.Duration
	sweepBusy                 float64 // computed simulation seconds during sweep phases
	coldBytes, sweepBytes     atomic.Int64
	coldMu                    sync.Mutex
	coldBodies                map[int64][]byte // kept for the check against direct runs
}

// postWarm sends the next warm request, a recall, and checks its body
// byte for byte against the first response to it.
func (l *serveLoad) postWarm() (time.Duration, error) {
	k := int(l.nextWarm.Add(1)-1) % len(l.env.warm)
	_, sp := otrace.Start(l.ctx, "request.warm")
	body, d, err := l.env.post("/v1/run", l.env.warm[k])
	sp.End()
	if err == nil && !bytes.Equal(body, l.env.first[k]) {
		err = fmt.Errorf("warm request %d: body differs from its first response", k)
	}
	return d, err
}

// postCold sends the next cold request, which computes.
func (l *serveLoad) postCold() (time.Duration, error) {
	i := l.nextCold.Add(1) - 1
	req := coldRequest(l.p, i)
	_, sp := otrace.Start(l.ctx, "request.cold")
	body, d, err := l.env.post("/v1/run", runBody(req))
	sp.End()
	if err == nil {
		err = checkRunBody(body, req)
	}
	if err == nil {
		l.coldBytes.Add(int64(len(body)))
		if l.p.traced {
			l.coldMu.Lock()
			l.coldBodies[i] = body
			l.coldMu.Unlock()
		}
	}
	return d, err
}

// postSweep sends the next sweep, a fresh grid fanned out on the pool.
func (l *serveLoad) postSweep() (time.Duration, error) {
	req := sweepRequest(l.p, l.nextSweep.Add(1)-1)
	_, sp := otrace.Start(l.ctx, "request.sweep")
	body, d, err := l.env.post("/v1/sweep", sweepBody(req))
	sp.End()
	if err == nil {
		err = checkSweepBody(body, req)
		l.sweepBytes.Add(int64(len(body)))
	}
	return d, err
}

// round runs a warm phase of the given length, a cold phase of the
// given length and one sweep per client, and records the round's
// throughput: the accesses its cold runs and sweep cells computed per
// host second of those two phases.
func (l *serveLoad) round(warmFor, coldFor time.Duration) error {
	st0, err := l.env.stats()
	if err != nil {
		return err
	}
	_, sp := otrace.Start(l.ctx, "phase.warm")
	l.warm = append(l.warm, closedLoop(l.p, forDuration(warmFor), l.postWarm)...)
	sp.End()
	st1, err := l.env.stats()
	if err != nil {
		return err
	}
	metrics0, err := l.env.get("/metrics")
	if err != nil {
		return err
	}

	_, sp = otrace.Start(l.ctx, "phase.cold")
	t := time.Now()
	cold := closedLoop(l.p, forDuration(coldFor), l.postCold)
	coldWall := time.Since(t)
	sp.End()
	st2, err := l.env.stats()
	if err != nil {
		return err
	}
	metrics1, err := l.env.get("/metrics")
	if err != nil {
		return err
	}

	busy0 := computedSeconds(l.env.srv)
	_, sp = otrace.Start(l.ctx, "phase.sweep")
	t = time.Now()
	sweeps := closedLoop(l.p, once, l.postSweep)
	sweepWall := time.Since(t)
	sp.End()

	runs := len(cold) + len(sweeps)*2*len(sweepPolicies)
	acc := float64(runs) * float64(l.p.length(defaultAccesses)) * float64(lap.DefaultConfig().Cores)
	l.tput = append(l.tput, acc/(coldWall+sweepWall).Seconds()/1e6)
	l.cold = append(l.cold, cold...)
	l.sweeps = append(l.sweeps, sweeps...)
	l.warmRecalled += st1.Recalled - st0.Recalled
	l.warmLookups += (st1.Recalled - st0.Recalled) + (st1.Computed - st0.Computed)
	l.coldComputed += st2.Computed - st1.Computed
	bucketGain(l.queueWait, metrics0, metrics1, "lapserved_queue_wait_seconds")
	l.sweepBusy += computedSeconds(l.env.srv) - busy0
	l.sweepWall += sweepWall
	return nil
}

func measureServe(p *pass) error {
	var setups []float64
	var env *serveEnv
	for i := 0; i < setupRounds; i++ {
		if env != nil {
			env.close()
		}
		t := time.Now()
		var err error
		if env, err = newServeEnv(p); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer env.close()
	ctx, root := p.tr.Root(context.Background(), "serve-mixed")
	defer root.End()
	rounds := serveRounds(p.seconds)
	share := func(frac float64) time.Duration {
		return time.Duration(frac * p.seconds / float64(rounds) * float64(time.Second))
	}

	l := &serveLoad{p: p, env: env, ctx: ctx, queueWait: map[float64]float64{}, coldBodies: map[int64][]byte{}}
	for r := 0; r < rounds; r++ {
		if err := l.round(share(warmShare), share(coldShare)); err != nil {
			return err
		}
	}
	p.reportEndToEnd(setups, l.cold, l.warm, l.tput,
		"one cold /v1/run", "one warm /v1/run",
		"accesses computed per host second of a round's cold and sweep phases, median of the rounds")
	p.note("%-26s %14.6g %-10s n=%d", "run_warm_p50_ms", quantile(l.warm, 0.5), "ms", len(l.warm))
	p.note("%-26s %14.6g %-10s n=%d", "run_warm_p99_ms", quantile(l.warm, 0.99), "ms", len(l.warm))
	p.note("%-26s %14.6g %-10s n=%d", "run_cold_p50_ms", quantile(l.cold, 0.5), "ms", len(l.cold))
	p.note("%-26s %14.6g %-10s n=%d", "run_cold_p90_ms", quantile(l.cold, 0.9), "ms", len(l.cold))
	p.note("%-26s %14.6g %-10s n=%d", "sweep_p50_ms", quantile(l.sweeps, 0.5), "ms", len(l.sweeps))
	p.note("%-26s %s", "round_maccess_per_s", strings.Trim(fmt.Sprintf("%.4g", l.tput), "[]"))
	if !p.traced {
		return nil
	}

	p.layer("server.sweep_p50_ms", quantile(l.sweeps, 0.5), "ms")
	if l.warmLookups > 0 {
		p.layer("memo.recall_frac.warm", float64(l.warmRecalled)/float64(l.warmLookups), "ratio")
	}
	p.layer("memo.computed.cold", float64(l.coldComputed), "count")
	p.layer("server.queue_wait_ms_p90", 1e3*histQuantile(l.queueWait, 0.9), "ms")
	p.layer("pool.busy_frac.sweep", l.sweepBusy/(l.sweepWall.Seconds()*float64(serveConfig().Jobs)), "ratio")
	if len(l.cold) > 0 {
		p.layer("server.resp_bytes.run", float64(l.coldBytes.Load())/float64(len(l.cold)), "bytes")
	}
	if len(l.sweeps) > 0 {
		p.layer("server.resp_bytes.sweep", float64(l.sweepBytes.Load())/float64(len(l.sweeps)), "bytes")
	}

	// Handler-only warm latency: the same requests straight into the
	// handler, no transport.
	h := env.srv.Handler()
	var next atomic.Int64
	_, sp := otrace.Start(ctx, "phase.handler")
	direct := closedLoop(p, forDuration(time.Duration(0.1*p.seconds*float64(time.Second))), func() (time.Duration, error) {
		k := int(next.Add(1)-1) % len(env.warm)
		req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(env.warm[k]))
		rec := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), env.first[k]) {
			return d, fmt.Errorf("direct warm request %d: status %d or body differs", k, rec.Code)
		}
		return d, nil
	})
	sp.End()
	handlerUs := 1e3 * quantile(direct, 0.5)
	p.layer("server.handler_warm_us", handlerUs, "us")
	p.layer("server.transport_warm_us", 1e3*quantile(l.warm, 0.5)-handlerUs, "us")

	// Every cold response against a direct lap.Run of the same request.
	_, sp = otrace.Start(ctx, "verify.cold")
	directMs, srcNs, srcAcc := verifyCold(p, l.coldBodies)
	sp.End()
	p.layer("server.cold_overhead_ms", quantile(l.cold, 0.5)-quantile(directMs, 0.5), "ms")
	if srcAcc > 0 {
		p.layer("workload.ns_per_access.cold", srcNs/srcAcc, "ns")
	}
	return nil
}

// checkRunBody checks a /v1/run response's identity fields.
func checkRunBody(body []byte, req server.RunRequest) error {
	var rr server.RunResult
	if err := json.Unmarshal(body, &rr); err != nil {
		return fmt.Errorf("decoding /v1/run response: %w", err)
	}
	if rr.Error != nil || rr.Seed != req.Seed || rr.Policy != req.Policy || rr.Accesses != req.Accesses || rr.Cycles == 0 {
		return fmt.Errorf("/v1/run %s seed %d: unexpected response %s", req.Mix, req.Seed, bytes.TrimSpace(body))
	}
	return nil
}

// checkSweepBody checks a sweep came back whole, in request order.
func checkSweepBody(body []byte, req server.SweepRequest) error {
	var sr server.SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return fmt.Errorf("decoding /v1/sweep response: %w", err)
	}
	if sr.Failed != 0 || sr.Cancelled != 0 || len(sr.Results) != len(req.Mixes)*len(req.Policies) {
		return fmt.Errorf("/v1/sweep seed %d: %d results, %d failed, %d cancelled", req.Seed, len(sr.Results), sr.Failed, sr.Cancelled)
	}
	for i, r := range sr.Results {
		if r.Error != nil || r.Seed != req.Seed || r.Policy != req.Policies[i%len(req.Policies)] || r.Cycles == 0 {
			return fmt.Errorf("/v1/sweep seed %d: cell %d is %+v", req.Seed, i, r)
		}
	}
	return nil
}

// verifyCold re-runs every cold request directly through lap.Run on
// nproc goroutines and checks the server returned exactly that result.
// It also times the direct runs and, afterwards and alone so that it
// never overlaps them, the workload layer of the first 20 requests: the
// time to decode their sources.
func verifyCold(p *pass, bodies map[int64][]byte) (directMs []float64, srcNs, srcAcc float64) {
	cfg := lap.DefaultConfig()
	idx := make(chan int64, len(bodies))
	for i := range bodies {
		idx <- i
	}
	close(idx)
	runtime.GC() // the garbage of the phases before is not the direct runs' cost
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				req := coldRequest(p, i)
				mix, err := tableIII(req.Mix)
				var res lap.Result
				t := time.Now()
				if err == nil {
					res, err = lap.Run(cfg, lap.Policy(req.Policy), mix, req.Accesses, req.Seed)
				}
				d := ms(time.Since(t))
				if err == nil {
					err = sameRunResult(bodies[i], req, mix, res)
				}
				p.op(err)
				mu.Lock()
				directMs = append(directMs, d)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for i := int64(0); i < 20; i++ {
		if _, ok := bodies[i]; !ok {
			continue
		}
		req := coldRequest(p, i)
		if mix, err := tableIII(req.Mix); err == nil {
			ns, acc := decodeCost(mix, req.Accesses, req.Seed)
			srcNs += ns
			srcAcc += acc
		}
	}
	return directMs, srcNs, srcAcc
}

// sameRunResult compares a /v1/run body with the wire form of a direct
// run's result.
func sameRunResult(body []byte, req server.RunRequest, mix lap.Mix, r lap.Result) error {
	want := server.RunResult{
		Policy:       req.Policy,
		Workload:     "mix:" + mix.Name + "[" + strings.Join(mix.Members, ",") + "]",
		Accesses:     req.Accesses,
		Seed:         req.Seed,
		MPKI:         r.MPKI(),
		Throughput:   r.Throughput,
		Cycles:       r.Cycles,
		EPIStaticNJ:  r.EPI.StaticNJPerInstr,
		EPIDynamicNJ: r.EPI.DynamicNJPerInstr,
		EPITotalNJ:   r.EPI.Total(),
		TotalNJ:      r.TotalNJ,
		IPCs:         r.IPCs,
	}
	var got server.RunResult
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding cold response: %w", err)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("cold %s seed %d: server result differs from a direct lap.Run", mix.Name, req.Seed)
	}
	return nil
}

// decodeCost drains a request's sources through NextBatch and returns
// the time spent and the accesses decoded.
func decodeCost(mix lap.Mix, accesses, seed uint64) (ns, n float64) {
	srcs, err := sim.MixSources(mix, accesses, seed)
	if err != nil {
		return 0, 0
	}
	buf := make([]trace.Access, 256)
	for _, s := range srcs {
		t := time.Now()
		for {
			got := trace.FillBatch(s, buf)
			n += float64(got)
			if got < len(buf) {
				break
			}
		}
		ns += float64(time.Since(t).Nanoseconds())
	}
	return ns, n
}

// computedSeconds is the server's summed simulation execution time.
func computedSeconds(s *server.Server) float64 {
	for k, v := range s.Metrics().Snapshot() {
		if strings.HasPrefix(k, "lapserved_run_duration_seconds_sum") && strings.Contains(k, `source="computed"`) {
			return v
		}
	}
	return 0
}

// bucketGain adds to acc the observations name's /metrics histogram
// gained between two scrapes, as cumulative counts by upper bound.
func bucketGain(acc map[float64]float64, before, after []byte, name string) {
	b0 := buckets(before, name)
	for le, c := range buckets(after, name) {
		acc[le] += c - b0[le]
	}
}

// histQuantile estimates the q-quantile of a histogram's cumulative
// bucket counts, interpolating inside buckets.
func histQuantile(b map[float64]float64, q float64) float64 {
	var les []float64
	var counts []float64
	for _, le := range sortedKeys(b) {
		les = append(les, le)
		counts = append(counts, b[le])
	}
	if len(counts) == 0 || counts[len(counts)-1] == 0 {
		return 0
	}
	target := q * counts[len(counts)-1]
	prevLe, prevC := 0.0, 0.0
	for i, c := range counts {
		if c >= target {
			if les[i] > 1e300 { // +Inf: report the last finite bound
				return prevLe
			}
			if c == prevC {
				return les[i]
			}
			return prevLe + (les[i]-prevLe)*(target-prevC)/(c-prevC)
		}
		prevLe, prevC = les[i], c
	}
	return prevLe
}

// buckets parses name's cumulative bucket counts, keyed by upper bound.
func buckets(expo []byte, name string) map[float64]float64 {
	out := map[float64]float64{}
	sc := bufio.NewScanner(bytes.NewReader(expo))
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, name+"_bucket{")
		if !ok {
			continue
		}
		_, le, ok := strings.Cut(rest, `le="`)
		if !ok {
			continue
		}
		leStr, tail, _ := strings.Cut(le, `"`)
		bound, err := strconv.ParseFloat(strings.Replace(leStr, "+Inf", "Inf", 1), 64)
		if err != nil {
			continue
		}
		fields := strings.Fields(tail)
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err == nil {
			out[bound] += v
		}
	}
	return out
}

func sortedKeys(m map[float64]float64) []float64 {
	var ks []float64
	for k := range m {
		ks = append(ks, k)
	}
	sort.Float64s(ks)
	return ks
}
