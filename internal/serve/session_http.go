package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"galois"
	"galois/internal/rescache"
	"galois/internal/session"
	"galois/internal/stats"
)

// SessionInfo is the wire shape of GET /sessions/{id} and the creation
// response: the normalized init spec plus the full receipt chain.
type SessionInfo struct {
	ID      string           `json:"id"`
	Init    session.InitSpec `json:"init"`
	Evicted bool             `json:"evicted"`
	Head    string           `json:"head"`
	Links   []session.Link   `json:"links"`
}

// BatchResult is the wire shape of POST /sessions/{id}/batches: the new
// chain link plus the run's serving-side measurements. A replayed link
// (idempotent retry) carries Replayed and zero measurements.
type BatchResult struct {
	ID        string       `json:"id"`
	Link      session.Link `json:"link"`
	WallNS    int64        `json:"wall_ns"`
	QueueNS   int64        `json:"queue_ns"`
	Commits   uint64       `json:"commits"`
	Aborts    uint64       `json:"aborts"`
	Rounds    uint64       `json:"rounds"`
	EngineHit bool         `json:"engine_hit"`
}

// sessionVerifyRequest is the optional body of POST /sessions/{id}/verify:
// a client holding only its final receipt posts that chain fingerprint and
// the server checks the full replay against it.
type sessionVerifyRequest struct {
	FinalChain string `json:"final_chain,omitempty"`
	Threads    int    `json:"threads,omitempty"`
}

// cachedLink is the result-cache payload for one session batch, keyed by
// rescache.KeyOfLink(prev, canon). Because the key pins the exact chain
// prefix, the fingerprints are pure functions of the key — which is what
// makes caching them sound. They are used as a cross-check, never as a
// substitute for execution (the state must actually advance), so a hit
// costs nothing and a mismatch is a determinism alarm.
type cachedLink struct {
	stateFP  uint64
	resultFP uint64
}

func (c *cachedLink) size() int64 { return 64 }

// batchOutcome carries one batch task's result over its done channel.
type batchOutcome struct {
	res *BatchResult
	err *httpError
}

// batchTask is one admitted session mutation batch. It shares the
// executor substrate with one-shot jobs: same queue, same workers, same
// engine pool, same deadline semantics. The session's own lock serializes
// batches against the same state; batches on different sessions run
// concurrently on different workers.
type batchTask struct {
	srv      *Server
	sess     *session.Session
	b        session.BatchSpec
	variant  string
	threads  int
	deadline time.Time
	admitted time.Time
	done     chan batchOutcome
}

func (t *batchTask) run(tid int) func() {
	out := t.srv.runBatch(tid, t)
	return func() { t.done <- out }
}

// runBatch executes one session batch on a worker.
func (s *Server) runBatch(tid int, t *batchTask) batchOutcome {
	if time.Now().After(t.deadline) {
		s.exec.met.Counter("serve.timeout").Add(tid, 1)
		return batchOutcome{err: errf(http.StatusGatewayTimeout,
			"session %s batch exceeded its deadline while queued", t.sess.ID)}
	}
	var (
		wall      time.Duration
		queued    = time.Since(t.admitted)
		st        stats.Stats
		engineHit bool
	)
	runner := func(k *session.Kind, state any, b session.BatchSpec, prev, canon []byte) (uint64, uint64, error) {
		var stateFP, resultFP uint64
		var aerr error
		herr := s.exec.withEngine(t.threads, tid, func(eng *galois.Engine, hit bool) {
			engineHit = hit
			opts := schedOpts(t.variant, t.threads, eng, nil)
			start := time.Now()
			stateFP, resultFP, st, aerr = k.Apply(state, b, opts)
			wall = time.Since(start)
		})
		if herr != nil {
			return 0, 0, errors.New(herr.msg)
		}
		if aerr != nil {
			return 0, 0, aerr
		}
		s.checkLinkCache(tid, prev, canon, stateFP, resultFP)
		return stateFP, resultFP, nil
	}
	now := time.Now().UnixNano() //detlint:ordered idle-eviction bookkeeping only: session.Batch stores the timestamp as lastUsed and never feeds it into the chain hash
	link, err := t.sess.Batch(t.b, now, runner)
	if err != nil {
		return batchOutcome{err: sessionError(t.sess.ID, err)}
	}
	s.exec.met.Counter("serve.session.batch").Add(tid, 1)
	if link.Replayed {
		s.exec.met.Counter("serve.session.batch.replayed").Add(tid, 1)
		return batchOutcome{res: &BatchResult{ID: t.sess.ID, Link: link}}
	}
	s.recordRun(tid, Spec{Kind: "session." + t.sess.Init().Kind, Variant: t.variant, Threads: t.threads}, st, wall)
	return batchOutcome{res: &BatchResult{
		ID: t.sess.ID, Link: link,
		WallNS: wall.Nanoseconds(), QueueNS: queued.Nanoseconds(),
		Commits: st.Commits, Aborts: st.Aborts, Rounds: st.Rounds,
		EngineHit: engineHit,
	}}
}

// checkLinkCache cross-checks a freshly computed batch result against the
// chain-prefix-keyed cache and refreshes the entry. Unlike one-shot jobs,
// a hit can never skip execution — the pinned state must advance — so the
// cache's value here is purely evidential: an agreeing entry (from an
// identical session elsewhere, or a previous life of this chain prefix)
// confirms cross-run determinism, a disagreeing one is evicted and
// counted as a determinism alarm.
func (s *Server) checkLinkCache(tid int, prev, canon []byte, stateFP, resultFP uint64) {
	if s.cache == nil {
		return
	}
	key, err := rescache.KeyOfLink(prev, canon)
	if err != nil {
		return
	}
	if v, ok := s.cache.Get(key); ok {
		cl := v.(*cachedLink)
		if cl.stateFP == stateFP && cl.resultFP == resultFP {
			s.exec.met.Counter("serve.session.chain.confirm").Add(tid, 1)
		} else {
			s.exec.met.Counter("serve.session.chain.mismatch").Add(tid, 1)
			s.cache.Remove(key)
		}
	}
	cl := &cachedLink{stateFP: stateFP, resultFP: resultFP}
	s.cache.Put(key, cl, cl.size())
}

// verifyOutcomeBox carries one verify task's result over its done channel.
type verifyOutcomeBox struct {
	out *session.VerifyOutcome
	err *httpError
}

// verifyTask replays a session's whole chain on one worker with one
// checked-out engine. It bypasses the link cache entirely — read and
// write — because an audit is only evidence if it reaches real runs.
type verifyTask struct {
	srv      *Server
	sess     *session.Session
	expect   string
	variant  string
	threads  int
	deadline time.Time
	done     chan verifyOutcomeBox
}

func (t *verifyTask) run(tid int) func() {
	out := t.srv.runSessionVerify(tid, t)
	return func() { t.done <- out }
}

func (s *Server) runSessionVerify(tid int, t *verifyTask) verifyOutcomeBox {
	if time.Now().After(t.deadline) {
		s.exec.met.Counter("serve.timeout").Add(tid, 1)
		return verifyOutcomeBox{err: errf(http.StatusGatewayTimeout,
			"session %s verify exceeded its deadline while queued", t.sess.ID)}
	}
	var out session.VerifyOutcome
	var verr error
	herr := s.exec.withEngine(t.threads, tid, func(eng *galois.Engine, hit bool) {
		runner := func(k *session.Kind, state any, b session.BatchSpec, prev, canon []byte) (uint64, uint64, error) {
			stateFP, resultFP, _, err := k.Apply(state, b, schedOpts(t.variant, t.threads, eng, nil))
			return stateFP, resultFP, err
		}
		out, verr = t.sess.Verify(t.expect, runner)
	})
	if herr != nil {
		return verifyOutcomeBox{err: herr}
	}
	if verr != nil {
		return verifyOutcomeBox{err: errf(http.StatusInternalServerError, "session %s replay: %v", t.sess.ID, verr)}
	}
	s.exec.met.Counter("serve.session.verify").Add(tid, 1)
	if !out.Match {
		s.exec.met.Counter("serve.session.verify.mismatch").Add(tid, 1)
	}
	return verifyOutcomeBox{out: &out}
}

// sessionError maps session-package sentinels onto HTTP statuses.
func sessionError(id string, err error) *httpError {
	switch {
	case errors.Is(err, session.ErrNotFound):
		return errf(http.StatusNotFound, "session %s: %v", id, err)
	case errors.Is(err, session.ErrEvicted):
		return errf(http.StatusGone, "session %s: %v (chain remains readable via GET and verifiable via POST verify)", id, err)
	case errors.Is(err, session.ErrPrevMismatch):
		return errf(http.StatusConflict, "session %s: %v", id, err)
	case errors.Is(err, session.ErrTooManySessions):
		return &httpError{status: http.StatusTooManyRequests, msg: err.Error(), retryAfter: 1}
	default:
		return errf(http.StatusBadRequest, "session %s: %v", id, err)
	}
}

// sessionInfo snapshots a session into its wire shape.
func sessionInfo(s *session.Session) *SessionInfo {
	init, links, evicted := s.Snapshot()
	return &SessionInfo{
		ID: s.ID, Init: init, Evicted: evicted,
		Head: links[len(links)-1].Chain, Links: links,
	}
}

// jsonDecoderLenient is decode() without the error writing, for handlers
// whose body is optional.
func jsonDecoderLenient(w http.ResponseWriter, r *http.Request, maxBody int64) *json.Decoder {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	return dec
}

func isEmptyBody(err error) bool { return errors.Is(err, io.EOF) }

// --- session HTTP handlers ---

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	s.sweepSessions()
	var is session.InitSpec
	if !s.decode(w, r, &is) {
		return
	}
	if s.exec.draining() {
		writeError(w, errf(http.StatusServiceUnavailable, "server is draining; not accepting sessions"))
		return
	}
	if is.Threads > s.cfg.MaxThreads {
		writeError(w, errf(http.StatusBadRequest, "threads %d exceeds server limit %d", is.Threads, s.cfg.MaxThreads))
		return
	}
	if is.Threads <= 0 {
		is.Threads = s.cfg.DefaultThreads
	}
	now := time.Now().UnixNano() //detlint:ordered idle-eviction bookkeeping only: session.Create stores the timestamp as lastUsed and never feeds it into the chain hash
	sess, err := s.sessions.Create(is, now)
	if err != nil {
		writeError(w, sessionError("(new)", err))
		return
	}
	s.count("serve.session.create")
	writeJSON(w, http.StatusCreated, sessionInfo(sess))
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	s.sweepSessions()
	sess, err := s.sessions.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, sessionError(r.PathValue("id"), err))
		return
	}
	writeJSON(w, http.StatusOK, sessionInfo(sess))
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.sessions.Close(id); err != nil {
		writeError(w, sessionError(id, err))
		return
	}
	s.count("serve.session.close")
	sess, err := s.sessions.Get(id)
	if err != nil {
		writeError(w, sessionError(id, err))
		return
	}
	writeJSON(w, http.StatusOK, sessionInfo(sess))
}

func (s *Server) handleSessionBatch(w http.ResponseWriter, r *http.Request) {
	s.sweepSessions()
	id := r.PathValue("id")
	var b session.BatchSpec
	if !s.decode(w, r, &b) {
		return
	}
	sess, err := s.sessions.Get(id)
	if err != nil {
		writeError(w, sessionError(id, err))
		return
	}
	threads := b.Threads
	if threads <= 0 {
		threads = sess.Init().Threads
	}
	if threads <= 0 {
		threads = s.cfg.DefaultThreads
	}
	if threads > s.cfg.MaxThreads {
		writeError(w, errf(http.StatusBadRequest, "threads %d exceeds server limit %d", threads, s.cfg.MaxThreads))
		return
	}
	timeout := s.cfg.DefaultTimeout
	if b.TimeoutMS > 0 {
		timeout = time.Duration(b.TimeoutMS) * time.Millisecond
	}
	now := time.Now()
	t := &batchTask{
		srv: s, sess: sess, b: b,
		variant: sess.Init().Variant, threads: threads,
		deadline: now.Add(timeout), admitted: now,
		done: make(chan batchOutcome, 1),
	}
	if herr := s.exec.admit(t); herr != nil {
		writeError(w, herr)
		return
	}
	//detlint:ignore goroutineorder admission wait: decides only whether the HTTP response gets written; the chain link is sealed under the session lock regardless
	select {
	case out := <-t.done:
		if out.err != nil {
			writeError(w, out.err)
			return
		}
		writeJSON(w, http.StatusOK, out.res)
	case <-r.Context().Done():
		writeError(w, errf(http.StatusGatewayTimeout,
			"request context canceled while session %s batch in flight: %v", id, r.Context().Err()))
	}
}

func (s *Server) handleSessionVerify(w http.ResponseWriter, r *http.Request) {
	s.sweepSessions()
	id := r.PathValue("id")
	var req sessionVerifyRequest
	// The body is optional: verifying against the recorded chain alone
	// needs no input from the client.
	dec := jsonDecoderLenient(w, r, s.cfg.MaxBody)
	if err := dec.Decode(&req); err != nil && !isEmptyBody(err) {
		writeError(w, errf(http.StatusBadRequest, "decoding request: %v", err))
		return
	}
	sess, err := s.sessions.Get(id)
	if err != nil {
		writeError(w, sessionError(id, err))
		return
	}
	threads := req.Threads
	if threads <= 0 {
		threads = s.cfg.DefaultThreads
	}
	if threads > s.cfg.MaxThreads {
		writeError(w, errf(http.StatusBadRequest, "threads %d exceeds server limit %d", threads, s.cfg.MaxThreads))
		return
	}
	t := &verifyTask{
		srv: s, sess: sess, expect: req.FinalChain,
		variant: sess.Init().Variant, threads: threads,
		deadline: time.Now().Add(s.cfg.DefaultTimeout),
		done:     make(chan verifyOutcomeBox, 1),
	}
	if herr := s.exec.admit(t); herr != nil {
		writeError(w, herr)
		return
	}
	//detlint:ignore goroutineorder admission wait: decides only whether the HTTP response gets written; the replay outcome is a pure function of the recorded chain
	select {
	case out := <-t.done:
		if out.err != nil {
			writeError(w, out.err)
			return
		}
		writeJSON(w, http.StatusOK, out.out)
	case <-r.Context().Done():
		writeError(w, errf(http.StatusGatewayTimeout,
			"request context canceled while session %s verify in flight: %v", id, r.Context().Err()))
	}
}
