package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"galois/internal/router"
	"galois/internal/serve"
	"galois/internal/session"
)

const (
	// hotSeeds is the size of each kind's zipf hot set of input seeds.
	hotSeeds = 8
	// minJobs keeps at least minTail one-shot jobs beyond the p95.
	minJobs = 200
	// freshBase and warmBase offset fresh and warm-up input seeds away from
	// the hot set (seed .. seed+hotSeeds-1).
	freshBase = 1 << 20
	warmBase  = 1 << 19
	// structureSeed fixes the stream clientOps draws a request sequence's
	// structure from.
	structureSeed = 0x9a1015

	reqHeader  = "X-Perfbench-Req"
	spanHeader = "X-Perfbench-Span"
)

// cluster is two galoisd backends behind a galoisrouter, each on its own
// loopback listener in this process, configured as galoisd and
// galoisrouter start by default.
type cluster struct {
	backends []*serve.Server
	rt       *router.Router
	https    []*http.Server
	serving  sync.WaitGroup
	url      string
}

func startCluster(tr *tracer, parent ref) (*cluster, error) {
	c := &cluster{}
	var specs []router.BackendSpec
	for i := 0; i < 2; i++ {
		s := tr.begin("serve.new_server", parent)
		srv := serve.NewServer(serve.Config{CacheBytes: 64 << 20, SessionIdle: 10 * time.Minute})
		h := srv.Handler()
		tr.end(s, nil)
		c.backends = append(c.backends, srv)
		url, err := c.listen(wrapServe(h, tr))
		if err != nil {
			c.close()
			return nil, err
		}
		specs = append(specs, router.BackendSpec{URL: url})
	}
	s := tr.begin("router.new", parent)
	var upstream http.RoundTripper = &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 64, IdleConnTimeout: 90 * time.Second}
	if tr != nil {
		upstream = &propagate{base: upstream, tr: tr, span: "router.upstream"}
	}
	rt, err := router.New(router.Config{Backends: specs, Policy: "consistent-hash",
		ProbeInterval: 2 * time.Second, Client: &http.Client{Transport: upstream}})
	if err != nil {
		tr.end(s, nil)
		c.close()
		return nil, err
	}
	h := rt.Handler()
	tr.end(s, nil)
	c.rt = rt
	if c.url, err = c.listen(wrapRouter(h, tr)); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *cluster) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listening on loopback: %w", err)
	}
	hs := &http.Server{Handler: h}
	c.https = append(c.https, hs)
	c.serving.Add(1)
	//detlint:ignore goroutineorder listener goroutine: close shuts the server down and waits for it; it produces no result
	go func() {
		defer c.serving.Done()
		_ = hs.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the router, then the backends, and waits for every listener
// goroutine to exit.
func (c *cluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := len(c.https) - 1; i >= 0; i-- {
		_ = c.https[i].Shutdown(ctx)
	}
	if c.rt != nil {
		c.rt.Close()
	}
	for _, b := range c.backends {
		_ = b.Shutdown(ctx)
	}
	c.serving.Wait()
}

// client returns a galoisd client over one connection to the router.
func (c *cluster) client(tr *tracer) (*serve.Client, *http.Transport) {
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	var rt http.RoundTripper = tp
	if tr != nil {
		rt = &propagate{base: tp}
	}
	return serve.NewClient(c.url, &http.Client{Transport: rt}), tp
}

// propagate is a RoundTripper that stamps the span carried by the request
// context onto the outbound request's headers. With span set it first
// opens a child span of that name, which ends when the response body is
// closed.
type propagate struct {
	base http.RoundTripper
	tr   *tracer
	span string
}

func (p *propagate) RoundTrip(r *http.Request) (*http.Response, error) {
	cur, ok := refFrom(r.Context())
	if !ok {
		return p.base.RoundTrip(r)
	}
	if p.span != "" {
		cur = p.tr.begin(p.span, cur)
	}
	r = r.Clone(r.Context())
	r.Header.Set(reqHeader, strconv.FormatInt(cur.req, 10))
	r.Header.Set(spanHeader, strconv.Itoa(cur.id))
	resp, err := p.base.RoundTrip(r)
	if p.span == "" {
		return resp, err
	}
	if err != nil {
		p.tr.end(cur, nil)
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() { p.tr.end(cur, nil) }}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (e *endOnClose) Close() error {
	err := e.ReadCloser.Close()
	e.once.Do(e.end)
	return err
}

func refFromHeader(h http.Header) (ref, bool) {
	req, err1 := strconv.ParseInt(h.Get(reqHeader), 10, 64)
	id, err2 := strconv.Atoi(h.Get(spanHeader))
	return ref{req: req, id: id}, err1 == nil && err2 == nil
}

// wrapRouter records router.handle around the router's handler and passes
// the span to the upstream transport through the request context. Requests
// without a span header (none are sent) pass through untraced.
func wrapRouter(h http.Handler, tr *tracer) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, ok := refFromHeader(r.Header)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		s := tr.begin("router.handle", parent)
		h.ServeHTTP(w, r.WithContext(withRef(r.Context(), s)))
		tr.end(s, nil)
	})
}

// wrapServe records serve.handle around a backend's handler and attaches
// the queue and run times its response reports. The router's health
// probes carry no span header and pass through untraced.
func wrapServe(h http.Handler, tr *tracer) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, ok := refFromHeader(r.Header)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		s := tr.begin("serve.handle", parent)
		tee := &teeWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(tee, r)
		tr.end(s, nil)
		tr.attach(s, serveCounts(r.URL.Path, tee))
	})
}

type teeWriter struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (t *teeWriter) WriteHeader(code int) {
	t.status = code
	t.ResponseWriter.WriteHeader(code)
}

func (t *teeWriter) Write(b []byte) (int, error) {
	t.body.Write(b)
	return t.ResponseWriter.Write(b)
}

func serveCounts(path string, t *teeWriter) map[string]int64 {
	if t.status != http.StatusOK {
		return map[string]int64{"status": int64(t.status)}
	}
	b := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	switch {
	case path == "/jobs":
		var jr serve.JobResult
		if json.Unmarshal(t.body.Bytes(), &jr) == nil {
			return map[string]int64{"job": 1, "queue_ns": jr.QueueNS, "run_ns": jr.WallNS,
				"cached": b(jr.Receipt.Cached), "engine_hit": b(jr.EngineHit)}
		}
	case strings.HasSuffix(path, "/batches"):
		var br serve.BatchResult
		if json.Unmarshal(t.body.Bytes(), &br) == nil {
			return map[string]int64{"batch": 1, "queue_ns": br.QueueNS, "run_ns": br.WallNS}
		}
	}
	return nil
}

// op is one client request of the served load.
type op struct {
	kind  string // "job", "verify" or "batch"
	spec  serve.Spec
	of    int // verify: index of the earlier g-d job whose receipt is checked
	batch session.BatchSpec
}

// clientOps is client's request sequence in one served segment: a pure
// function of (seed, client, segment) and the workload, so every run serves
// the same multiset of specs. Its structure (the order kinds take turns in,
// hot-set ranks and verify targets) comes from a stream fixed per client,
// so every segment of every run has the same mix of kinds, cache hits and
// verifies; the seed picks the inputs, and each segment its own fresh ones.
// The kinds of deck take turns in an order shuffled per round, so each
// kind's share of jobs is its share of the deck. One job in four runs under
// g-n, the rest under g-d; another one in four draws its input seed from
// the kind's zipf hot set, the rest use fresh seeds. A session batch follows
// every batchEvery jobs, a verify of an earlier g-d receipt every twentieth.
func clientOps(seed uint64, client, segment int, deck []string, sessionKind string, jobs int) []op {
	r := rand.New(rand.NewPCG(structureSeed, uint64(client)))
	zipf := rand.NewZipf(r, 1.2, 1, hotSeeds-1)
	order := append([]string(nil), deck...)
	every := batchEvery[sessionKind]
	var ops []op
	var det []int
	for j := 0; j < jobs; j++ {
		if j%len(order) == 0 {
			r.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		}
		spec := serve.Spec{Kind: order[j%len(order)], Variant: "g-d", Scale: "small", Threads: 1,
			Seed: seed + freshBase*uint64(client+1) + uint64(segment*jobs+j)}
		if j%4 == 3 {
			spec.Variant = "g-n"
		}
		if j%4 == 1 {
			spec.Seed = seed + zipf.Uint64()
		}
		if spec.Variant == "g-d" {
			det = append(det, len(ops))
		}
		ops = append(ops, op{kind: "job", spec: spec})
		if (j+1)%every == 0 {
			ops = append(ops, op{kind: "batch", batch: batchSpec(sessionKind, seed, client, (j+1)/every-1, jobs/every)})
		}
		if (j+1)%20 == 0 && len(det) > 0 {
			ops = append(ops, op{kind: "verify", of: det[r.IntN(len(det))]})
		}
	}
	return ops
}

// batchEvery is how many jobs a client sends per batch on its session.
// Refine batches grow the pinned mesh, so their cost spreads widely;
// they come a quarter as often as reweight batches, whose cost is steady,
// so that a mixed median lies among the steady ones.
var batchEvery = map[string]int{"sssp": 2, "dmr": 8}

// batchSpec is batch i of a session's n: dmr refines at an angle bound
// rising evenly from 15 to 30 degrees over the n batches, so each one
// refines a little further; sssp perturbs 256 edge weights from a
// per-batch seed.
func batchSpec(kind string, seed uint64, client, i, n int) session.BatchSpec {
	if kind == "dmr" {
		return session.BatchSpec{Op: "refine", AngleCentideg: 1500 + 1500*(i+1)/n, Threads: 1}
	}
	return session.BatchSpec{Op: "reweight", Edges: 256, Seed: seed ^ uint64(client)<<32 + uint64(i), Threads: 1}
}

// rec is the client's record of one request.
type rec struct {
	op     string
	ms     float64
	err    error
	job    *serve.JobResult
	verify *serve.VerifyResult
}

// clientRun is one closed-loop client's session and request records.
type clientRun struct {
	recs     []rec
	sessID   string
	head     string
	verifyMS float64
	verified *session.VerifyOutcome
	err      error
}

// timedCall runs call under a client.<name> root span and records it.
func timedCall(tr *tracer, name string, call func(ctx context.Context) error) rec {
	s := tr.root("client." + name)
	ctx := withRef(context.Background(), s)
	t := now()
	err := call(ctx)
	ms := float64(now().Sub(t).Nanoseconds()) / 1e6
	tr.end(s, nil)
	return rec{op: name, ms: ms, err: err}
}

// run executes ops in a closed loop: each request is sent once the
// previous one has answered.
func (cr *clientRun) run(cl *serve.Client, tr *tracer, init session.InitSpec, ops []op) {
	var info *serve.SessionInfo
	r := timedCall(tr, "session", func(ctx context.Context) (err error) {
		info, err = cl.CreateSession(ctx, init)
		return err
	})
	cr.recs = append(cr.recs, r)
	if r.err == nil {
		cr.sessID, cr.head = info.ID, info.Head
	}
	jobAt := make(map[int]*serve.JobResult)
	for i, o := range ops {
		switch o.kind {
		case "job":
			var res *serve.JobResult
			r = timedCall(tr, "job", func(ctx context.Context) (err error) {
				res, err = cl.Submit(ctx, o.spec)
				return err
			})
			r.job = res
			jobAt[i] = res
		case "verify":
			var vr *serve.VerifyResult
			r = timedCall(tr, "verify", func(ctx context.Context) error {
				job := jobAt[o.of]
				if job == nil {
					return fmt.Errorf("no receipt to verify: job %d failed", o.of)
				}
				var err error
				vr, err = cl.Verify(ctx, job.Receipt)
				return err
			})
			r.verify = vr
		case "batch":
			b := o.batch
			b.Prev = cr.head
			r = timedCall(tr, "batch", func(ctx context.Context) error {
				if cr.sessID == "" {
					return fmt.Errorf("no session")
				}
				br, err := cl.SessionBatch(ctx, cr.sessID, b)
				if err == nil {
					cr.head = br.Link.Chain
				}
				return err
			})
		}
		cr.recs = append(cr.recs, r)
	}
}

// finish replays the client's session chain server-side.
func (cr *clientRun) finish(cl *serve.Client, tr *tracer) {
	if cr.sessID == "" {
		cr.err = fmt.Errorf("session was never created")
		return
	}
	r := timedCall(tr, "session_verify", func(ctx context.Context) (err error) {
		cr.verified, err = cl.SessionVerify(ctx, cr.sessID, cr.head, 1)
		return err
	})
	cr.verifyMS, cr.err = r.ms, r.err
}

// served is the outcome of a served load, which runs in segments, each on
// a freshly started cluster: the request records of every segment, and
// the counters each segment's cluster showed before it shut down.
type served struct {
	clients []*clientRun // two per segment, in segment order
	wall    float64      // seconds under load, summed over the segments
	tally   tally

	hits, misses, evictions, collapses float64 // result caches, both backends
	routed                             [2]float64
	proxyErrors                        float64
}

// segment runs segment index of the load on c: two closed-loop clients,
// each over its own connection, then a replay of both sessions. Its
// requests count toward the tally; the session replays are checks and do
// not. It then checks that both backends are idle and adds the cluster's
// counters.
func (sv *served) segment(c *cluster, tr *tracer, seed uint64, index int, deck []string, sessionKinds [2]string, jobs int) error {
	var runs [2]*clientRun
	var cls [2]*serve.Client
	var tps [2]*http.Transport
	var wg sync.WaitGroup
	t := now()
	for i := range runs {
		cls[i], tps[i] = c.client(tr)
		runs[i] = &clientRun{}
		// Each segment's sessions start from inputs of their own: one
		// small input's shape sways a batch's cost by up to 2x.
		init := session.InitSpec{Kind: sessionKinds[i], Variant: "g-d", Scale: "small", Seed: seed + uint64(2*index+i), Threads: 1}
		ops := clientOps(seed, i, index, deck, sessionKinds[i], jobs/2)
		wg.Add(1)
		//detlint:ignore goroutineorder closed-loop client: its records stay in runs[i], merged by client index
		go func(i int) {
			defer wg.Done()
			runs[i].run(cls[i], tr, init, ops)
		}(i)
	}
	wg.Wait()
	sv.wall += now().Sub(t).Seconds()
	for i, cr := range runs {
		cr.finish(cls[i], tr)
		tps[i].CloseIdleConnections()
		for _, r := range cr.recs {
			sv.tally.add(r.err)
		}
	}
	sv.clients = append(sv.clients, runs[:]...)
	if err := c.health(); err != nil {
		return err
	}
	for _, b := range c.backends {
		cc := b.CacheCounters()
		sv.hits, sv.misses, sv.evictions = sv.hits+float64(cc.Hits), sv.misses+float64(cc.Misses), sv.evictions+float64(cc.Evictions)
		sv.collapses += float64(b.Metrics().Counter("serve.cache.collapse").Value())
	}
	for i, b := range c.rt.Snapshot().Backends {
		sv.routed[i] += float64(b.Requests)
		sv.proxyErrors += float64(b.Errors)
	}
	return nil
}

// warm sends one g-d job per kind, from input seeds outside the load's.
func (c *cluster) warm(tr *tracer, parent ref, seed uint64, kinds []string) error {
	cl, tp := c.client(tr)
	defer tp.CloseIdleConnections()
	for _, k := range kinds {
		s := tr.begin("client.job", parent)
		_, err := cl.Submit(withRef(context.Background(), s), serve.Spec{Kind: k, Variant: "g-d", Scale: "small", Seed: seed + warmBase, Threads: 1})
		tr.end(s, nil)
		if err != nil {
			return fmt.Errorf("warm-up %s job: %w", k, err)
		}
	}
	return nil
}

// latencyMS returns the latencies of one request type, failures as +Inf.
func (sv *served) latencyMS(opName string) []float64 {
	var ok []float64
	failed := 0
	for _, cr := range sv.clients {
		for _, r := range cr.recs {
			switch {
			case r.op != opName:
			case r.err != nil:
				failed++
			default:
				ok = append(ok, r.ms)
			}
		}
	}
	return latencies(ok, failed)
}

// check verifies the served outputs: every verify matched, every session
// chain replays to its head, and each g-d receipt (and g-n receipt of a
// kind with a unique output) on a hot-set seed equals the fingerprint the
// same spec gives in process, as computed by ref.
func (sv *served) check(seed uint64, ref func(kind string, seed uint64, seq bool) uint64) error {
	for i, cr := range sv.clients {
		if cr.err != nil {
			return fmt.Errorf("client %d session verify: %w", i, cr.err)
		}
		if !cr.verified.Match {
			return fmt.Errorf("client %d session chain fails replay at link %d: %s", i, cr.verified.FailedIndex, cr.verified.Reason)
		}
		for _, r := range cr.recs {
			if r.verify != nil && !r.verify.Match {
				return fmt.Errorf("verify mismatch: expect %s got %s", r.verify.Expect, r.verify.Got)
			}
			if r.job == nil || r.job.Receipt.Spec.Seed-seed >= hotSeeds {
				continue
			}
			spec := r.job.Receipt.Spec
			det := spec.Variant == "g-d"
			if !det && !allApps[spec.Kind].seqOracle {
				continue
			}
			want := ref(spec.Kind, spec.Seed, !det)
			if got := r.job.Receipt.Fingerprint; got != fmt.Sprintf("%016x", want) {
				return fmt.Errorf("served %s fingerprint %s, in process %016x", spec, got, want)
			}
		}
	}
	return nil
}

// health checks that each backend is live and idle after the load.
func (c *cluster) health() error {
	for i, b := range c.backends {
		h := b.Healthz()
		if !h.OK || h.QueueDepth != 0 || h.InFlight != 0 {
			return fmt.Errorf("backend %d not idle after the load: %+v", i, h)
		}
	}
	return nil
}

// endToEnd adds the served end-to-end metrics.
func (sv *served) endToEnd(m metricSet) error {
	jobs := sv.latencyMS("job")
	if beyond(len(jobs), 0.95) < minTail {
		return fmt.Errorf("%d jobs leave fewer than %d beyond the p95", len(jobs), minTail)
	}
	for _, l := range []struct {
		name string
		v    float64
	}{
		{"job_p50_ms", percentile(jobs, 0.5)},
		{"job_p95_ms", percentile(jobs, 0.95)},
		{"batch_p50_ms", percentile(sv.latencyMS("batch"), 0.5)},
	} {
		if math.IsInf(l.v, 1) {
			return fmt.Errorf("%s is past every limit: %d of %d requests failed", l.name, sv.tally.failed(), sv.tally.attempted)
		}
		m.add(l.name, l.v, "ms")
	}
	m.add("req_per_s", float64(sv.tally.attempted-sv.tally.failed())/sv.wall, "1/s")
	return nil
}

// perLayer adds the serve, rescache, session and router metrics, from
// the spans and the counters the backends and router exposed.
func (sv *served) perLayer(m metricSet, spans []span) {
	kids := children(spans)
	var handler, hit, queue, run, other, batch, hop, upstream []float64
	var fresh, engineHits float64
	for i := range spans {
		s := &spans[i]
		ms := float64(s.dur()) / 1e6
		switch s.Name {
		case "serve.handle":
			switch {
			case s.Counts["batch"] == 1:
				batch = append(batch, ms)
			case s.Counts["job"] == 1:
				handler = append(handler, ms)
				if s.Counts["cached"] == 1 {
					hit = append(hit, ms)
					continue
				}
				q, r := float64(s.Counts["queue_ns"])/1e6, float64(s.Counts["run_ns"])/1e6
				queue, run, other = append(queue, q), append(run, r), append(other, ms-q-r)
				fresh++
				engineHits += float64(s.Counts["engine_hit"])
			}
		case "router.handle":
			hop = append(hop, float64(selfTime(s, kids))/1e6)
		case "router.upstream":
			upstream = append(upstream, ms)
		}
	}
	m.add("serve.handler_ms.p50", percentile(handler, 0.5), "ms")
	m.add("serve.handler_ms.p95", percentile(handler, 0.95), "ms")
	m.add("serve.queue_ms.p95", percentile(queue, 0.95), "ms")
	m.add("serve.run_ms.p50", percentile(run, 0.5), "ms")
	m.add("serve.other_ms.p50", percentile(other, 0.5), "ms")
	m.add("serve.engine_hit_ratio", ratio(engineHits, fresh), "ratio")

	m.add("rescache.hit_ratio", ratio(sv.hits, sv.hits+sv.misses), "ratio")
	m.add("rescache.hit_ms.p50", percentile(hit, 0.5), "ms")
	m.add("rescache.collapses", sv.collapses, "count")
	m.add("rescache.evictions", sv.evictions, "count")

	m.add("session.batch_ms.p95", percentile(batch, 0.95), "ms")
	var verify []float64
	for _, cr := range sv.clients {
		verify = append(verify, cr.verifyMS)
	}
	m.add("session.verify_ms", mean(verify), "ms")

	m.add("router.hop_ms.p50", percentile(hop, 0.5), "ms")
	m.add("router.upstream_ms.p50", percentile(upstream, 0.5), "ms")
	m.add("router.backend_share", ratio(max(sv.routed[0], sv.routed[1]), sv.routed[0]+sv.routed[1]), "ratio")
	m.add("router.proxy_errors", sv.proxyErrors, "count")
}

// report prints the latency tails with their sample counts, each at the
// highest percentile with at least minTail samples beyond it, and the
// request outcomes.
func (sv *served) report(w io.Writer) {
	for _, opName := range []string{"job", "batch", "verify"} {
		xs := sv.latencyMS(opName)
		fmt.Fprintf(w, "  %-6s n=%-4d p50 %.3fms", opName, len(xs), percentile(xs, 0.5))
		if p, ok := highestTail(len(xs)); ok && p > 0.5 {
			fmt.Fprintf(w, "  p%g %.3fms", p*100, percentile(xs, p))
		}
		fmt.Fprintln(w)
	}
	byKind := make(map[string][]float64)
	for i, cr := range sv.clients {
		for _, r := range cr.recs {
			switch {
			case r.job != nil && r.job.Receipt.Cached:
				byKind["job cached"] = append(byKind["job cached"], r.ms)
			case r.job != nil:
				k := "job " + r.job.Receipt.Spec.Kind
				byKind[k] = append(byKind[k], r.ms)
			case r.op == "batch" && r.err == nil:
				k := fmt.Sprintf("batch c%d", i%2)
				byKind[k] = append(byKind[k], r.ms)
			}
		}
	}
	for _, k := range slices.Sorted(maps.Keys(byKind)) {
		q1, q2, q3 := quartiles(byKind[k])
		fmt.Fprintf(w, "    %-11s n=%-4d %.3fms [%.3f, %.3f]\n", k, len(byKind[k]), q2, q1, q3)
	}
	fmt.Fprintf(w, "  requests %d in %.2fs, failed %d %v, error_ratio %.4f ratio\n",
		sv.tally.attempted, sv.wall, sv.tally.failed(), sv.tally.byClass, sv.tally.errorRatio())
}
