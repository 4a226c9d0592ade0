package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fmi/internal/serve"
)

// The serve workloads drive an in-process serve.Server over loopback,
// open loop: Poisson arrivals of short self-verifying allreduce jobs
// from three tenants, elastic jobs grown and shrunk through the resize
// endpoint, and one fixed-rate status poller; serve-kills adds seeded
// kills on the two noisy tenants' jobs. A closed loop of srvConns clients after the
// nominal phase measures the rate the service sustains.
const (
	srvRate      = 60.0 // nominal arrivals per second, all tenants: a seventh to a tenth of the closed loop's rate
	srvJobRanks  = 4
	srvJobIters  = 20
	srvJobCkpt   = 3 // checkpoint interval of every job, the server's default
	srvConns     = 2 // keep-alive connections: one per core of the reference box
	srvPollEvery = 20 * time.Millisecond
	srvDeadline  = time.Second            // job timeout, 25x a killed job's usual latency: a job still running then is a hang
	srvCPUWindow = 250 * time.Millisecond // about 15 jobs per window at the nominal rate
	srvWarmup    = time.Second            // unmeasured closed-loop jobs before each child measures
	srvSetups    = 29                     // extra servers set up and closed per child, for a median set-up time
	srvNominal   = 0.85                   // share of the run at the nominal rate; the closed loop gets the rest
	srvElastic   = 2                      // elastic jobs kept running through the nominal phase

	srvElasticIters    = 120
	srvElasticStep     = 5 * time.Millisecond
	srvElasticDeadline = 6 * time.Second
	srvResizes         = 4
	srvResizeGap       = 100 * time.Millisecond
)

var srvTenants = []string{"quiet", "noisy-a", "noisy-b"}

func serveConfig() serve.Config {
	return serve.Config{ComputeNodes: 40, SpareNodes: 8, AllowKill: true, JobTimeout: srvDeadline}
}

// startServer builds and starts a server and waits until /healthz
// answers.
func startServer() (*serve.Server, string, time.Duration, error) {
	t0 := time.Now()
	srv := serve.New(serveConfig())
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, "", 0, err
	}
	base := "http://" + addr.String()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr, Timeout: 5 * time.Second}).Get(base + "/healthz")
	if err != nil {
		srv.Close()
		return nil, "", 0, fmt.Errorf("healthz: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		srv.Close()
		return nil, "", 0, fmt.Errorf("healthz: %s", resp.Status)
	}
	return srv, base, time.Since(t0), nil
}

// arrival is one scheduled short job.
type arrival struct {
	due       time.Duration // since the phase start
	tenant    string
	killAfter time.Duration // after the submit returns; 0 for no kill
	killRank  int
}

// schedule draws Poisson arrivals at rate over [0, span); with kills,
// every job of a noisy tenant gets one.
func schedule(rng *rand.Rand, rate float64, span time.Duration, kills bool) []arrival {
	var out []arrival
	t := time.Duration(0)
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= span {
			return out
		}
		a := arrival{due: t, tenant: srvTenants[rng.Intn(len(srvTenants))]}
		if kills && a.tenant != "quiet" {
			a.killAfter = time.Duration(1+rng.Intn(6)) * time.Millisecond
			a.killRank = rng.Intn(srvJobRanks)
		}
		out = append(out, a)
	}
}

// jobResult is one short job's outcome.
type jobResult struct {
	tenant    string
	latency   float64 // ms from due to done; +Inf when refused or failed
	refused   bool
	hung      string // the hangStage of a job still running at its deadline; "" otherwise
	queuedMs  int64
	runningMs int64
	killedID  string // set when a kill was sent
	killed    bool   // the kill found the job running
}

// serveClient is the traffic state of one measured server.
type serveClient struct {
	srv    *serve.Server
	base   string
	client *http.Client
	tr     *tracer

	mu        sync.Mutex
	late      lateness
	submitMs  dist
	statusMs  dist
	resizeMs  dist
	elasticID []string
	attempted int
	failed    int
	problems  []string     // failed operations, for the report
	wrong     []string     // wrong outputs
	lastID    atomic.Value // string: the most recent job id, for the poller
	seq       atomic.Int64 // span ids: one per job and per status poll
	cpu       *cpuSampler  // counts short jobs done; nil outside the nominal phase
}

func (s *serveClient) failOp(format string, args ...any) {
	s.mu.Lock()
	s.failed++
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
	s.mu.Unlock()
}

func (s *serveClient) post(path string, body any) (int, []byte, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func (s *serveClient) get(path string) (int, []byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// submit posts a job spec and returns its id.
func (s *serveClient) submit(spec serve.JobSpec) (string, error) {
	code, body, err := s.post("/jobs", spec)
	if err != nil {
		return "", err
	}
	if code != 202 {
		return "", fmt.Errorf("submit: %d %s", code, bytes.TrimSpace(body))
	}
	var sub struct{ ID string }
	if err := json.Unmarshal(body, &sub); err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	return sub.ID, nil
}

// runJob submits one arrival and follows it to the end. Latency runs
// from the time the job was due, so a late generator shows.
func (s *serveClient) runJob(a arrival, due, t0 time.Time) jobResult {
	sent := time.Now()
	res := jobResult{tenant: a.tenant, latency: math.Inf(1)}
	log := s.tr.log("job")
	span := s.seq.Add(1)
	root := log.begin("job", span, -1)
	defer log.end(root)
	sub := log.begin("submit", span, root)
	id, err := s.submit(serve.JobSpec{Tenant: a.tenant, App: "allreduce", Ranks: srvJobRanks, Iters: srvJobIters, Interval: srvJobCkpt})
	log.end(sub)
	submitted := time.Now()
	s.mu.Lock()
	s.late.record(due.Sub(t0), sent.Sub(t0))
	s.submitMs = append(s.submitMs, msOf(submitted.Sub(sent)))
	s.mu.Unlock()
	if err != nil {
		res.refused = true
		return res
	}
	s.lastID.Store(id)
	if a.killAfter > 0 {
		time.Sleep(time.Until(submitted.Add(a.killAfter)))
		// A kill that finds the job queued or finished is refused and
		// changes nothing; the job counts either way.
		k := log.begin("kill", span, root)
		code, _, err := s.post("/jobs/"+id+"/kill", map[string]int{"rank": a.killRank})
		log.end(k)
		res.killedID, res.killed = id, err == nil && code == 200
	}
	w := log.begin("await", span, root)
	st, err := s.srv.Await(id, srvDeadline+2*time.Second)
	log.end(w)
	done := time.Now()
	res.queuedMs, res.runningMs = st.QueuedMs, st.RunningMs
	switch {
	case err == nil && st.State == "done":
		res.latency = msOf(done.Sub(due))
		if s.cpu != nil {
			s.cpu.add(1)
		}
	case err != nil || strings.Contains(st.Err, "timeout"):
		res.hung = s.hang(id, srvJobRanks, srvJobIters/srvJobCkpt*srvJobCkpt)
		if res.hung != hungAtEnd {
			s.failOp("job %s (%s, kill rank %d after %v) hung %s: %v %s", id, a.tenant, a.killRank, a.killAfter, res.hung, err, st.Err)
		}
	default:
		s.mu.Lock()
		s.wrong = append(s.wrong, fmt.Sprintf("job %s (%s) ended %s: %s", id, a.tenant, st.State, st.Err))
		s.mu.Unlock()
	}
	return res
}

// hang classifies a job that was still running at its deadline with
// hangStage, ranks being its size at the end and last its last
// checkpoint. A job hung at its end may have failed its output check,
// and counts as a wrong output; any other hang is a failed operation.
func (s *serveClient) hang(id string, ranks, last int) string {
	rec, err := s.srv.Trace(id)
	if err != nil || rec == nil {
		return hungNoTrace
	}
	stage := hangStage(rec.Events(), ranks, last)
	if stage == hungAtEnd {
		s.mu.Lock()
		s.wrong = append(s.wrong, fmt.Sprintf("job %s hung with every one of its %d ranks past the last checkpoint and not all finalized: an output check may have failed", id, ranks))
		s.mu.Unlock()
	}
	return stage
}

// drive runs arrivals open loop from t0: each job is sent at its due
// time on its own goroutine, whatever the state of earlier ones. It
// returns once every job has ended.
func (s *serveClient) drive(arrivals []arrival, t0 time.Time) []jobResult {
	out := make([]jobResult, len(arrivals))
	var wg sync.WaitGroup
	for i, a := range arrivals {
		due := t0.Add(a.due)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			out[i] = s.runJob(a, due, t0)
		}(i, a)
	}
	wg.Wait()
	return out
}

// poll reads the status of the most recent job at a fixed rate until
// stop is closed.
func (s *serveClient) poll(stop <-chan struct{}) {
	log := s.tr.log("poller")
	tick := time.NewTicker(srvPollEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		id, _ := s.lastID.Load().(string)
		if id == "" {
			continue
		}
		h := log.begin("status", s.seq.Add(1), -1)
		t := time.Now()
		code, _, err := s.get("/jobs/" + id)
		d := time.Since(t)
		log.end(h)
		s.mu.Lock()
		s.attempted++
		s.statusMs = append(s.statusMs, msOf(d))
		s.mu.Unlock()
		if err != nil || code != 200 {
			s.failOp("status %s: %d %v", id, code, err)
		}
	}
}

// elastic runs elastic jobs one after another until stop. Each job
// runs srvElasticIters iterations of srvElasticStep and is resized
// srvResizes times, alternating 2 -> 4 -> 2 ranks every srvResizeGap,
// which ends well before the job can.
func (s *serveClient) elastic(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		s.elasticJob()
	}
}

func (s *serveClient) elasticJob() {
	log := s.tr.log("elastic")
	span := s.seq.Add(1)
	s.mu.Lock()
	s.attempted++
	s.mu.Unlock()
	spec := serve.JobSpec{Tenant: "elastic", App: "noop", Ranks: 2, Iters: srvElasticIters, Interval: srvJobCkpt,
		StepMs: int(srvElasticStep / time.Millisecond), Elastic: true, TimeoutMs: int(srvElasticDeadline / time.Millisecond)}
	id, err := s.submit(spec)
	if err != nil {
		s.failOp("elastic %v", err)
		time.Sleep(srvResizeGap)
		return
	}
	for {
		st, err := s.srv.Status(id)
		if err != nil || st.State != "queued" {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ranks, size := 2, 2 // the requested and the committed size
	for i := 0; i < srvResizes; i++ {
		time.Sleep(srvResizeGap)
		ranks = 6 - ranks
		h := log.begin("resize", span, -1)
		t := time.Now()
		code, body, err := s.post("/jobs/"+id+"/resize", map[string]int{"ranks": ranks})
		d := time.Since(t)
		log.end(h)
		s.mu.Lock()
		s.attempted++
		s.mu.Unlock()
		if err != nil || code != 200 {
			s.failOp("resize %s to %d: %d %s %v", id, ranks, code, bytes.TrimSpace(body), err)
			break
		}
		size = ranks
		s.mu.Lock()
		s.resizeMs = append(s.resizeMs, msOf(d))
		s.mu.Unlock()
	}
	st, err := s.srv.Await(id, srvElasticDeadline+time.Second)
	s.mu.Lock()
	s.elasticID = append(s.elasticID, id)
	s.mu.Unlock()
	switch {
	case err == nil && st.State == "done":
	case err != nil || strings.Contains(st.Err, "timeout"):
		if stage := s.hang(id, size, srvElasticIters/srvJobCkpt*srvJobCkpt); stage != hungAtEnd {
			s.failOp("elastic job %s hung %s: %v %s", id, stage, err, st.Err)
		}
	default:
		s.mu.Lock()
		s.wrong = append(s.wrong, fmt.Sprintf("elastic job %s ended %s: %s", id, st.State, st.Err))
		s.mu.Unlock()
	}
}

// stats reads GET /stats.
func (s *serveClient) stats() (serve.ServerStats, error) {
	var st serve.ServerStats
	code, body, err := s.get("/stats")
	if err != nil {
		return st, err
	}
	if code != 200 {
		return st, fmt.Errorf("stats: %d", code)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("stats: %w", err)
	}
	return st, nil
}

// srvSegments is the number of child processes the nominal phase is
// split into; the closed loop runs in one more.
const srvSegments = 3

// serveRun runs the nominal phase in srvSegments children, then the
// closed loop in one more.
func serveRun(dur time.Duration, spawn spawner) (*sample, error) {
	pool := newSample()
	seg := time.Duration(float64(dur) * srvNominal / srvSegments)
	for i := 0; i <= srvSegments; i++ {
		d := seg
		if i == srvSegments {
			d = time.Duration(float64(dur) * (1 - srvNominal))
		}
		s, err := spawn(i, d)
		if err != nil {
			return nil, err
		}
		pool.merge(s)
	}
	return pool, nil
}

// serveChild runs one serve child: a fresh server, set up srvSetups+1
// times, then nominal traffic for dur, with or without kills, or the
// closed loop when index is srvSegments.
func serveChild(seed int64, index int, dur time.Duration, tr *tracer, kills bool) (*sample, error) {
	out := newSample()
	rng := rand.New(rand.NewSource(seed*7919 + int64(index)))
	g0 := goruntime.NumGoroutine()
	for i := 0; i < srvSetups; i++ {
		srv, _, d, err := startServer()
		if err != nil {
			return nil, err
		}
		srv.Close()
		out.add("setup_raw", msOf(d))
	}
	srv, base, d, err := startServer()
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	out.add("setup_raw", msOf(d))
	transport := &http.Transport{MaxConnsPerHost: srvConns, MaxIdleConnsPerHost: srvConns}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	warm, s := warmUp(srv, base, client, tr, srvWarmup)
	out.Attempted += warm.attempted
	out.Failed += warm.failed
	out.Wrong = append(out.Wrong, warm.wrong...)
	for _, p := range warm.problems {
		out.notef("failed in the warm-up: %s", p)
	}
	if index == srvSegments {
		s.closedLoop(dur, out)
	} else {
		s.nominal(rng, dur, out, kills)
	}
	out.Attempted += s.attempted
	out.Failed += s.failed
	out.Wrong = append(out.Wrong, s.wrong...)
	for _, p := range s.problems {
		out.notef("failed: %s", p)
	}
	st, err := s.stats()
	if err != nil {
		return nil, err
	}
	out.sum("lease_grants", float64(st.Spares.Granted))
	out.sum("lease_waits", float64(st.Spares.Queued))
	out.sum("goroutines_left", float64(goruntime.NumGoroutine()-g0))
	return out, nil
}

// warmUp runs closed-loop jobs for d on a client of their own, so that
// the server's heap and the Go runtime's pools reach the size a server
// that has been up a while runs at. It returns that client, whose
// operations still count but whose timings are not measured, and a
// fresh client for the measured traffic.
func warmUp(srv *serve.Server, base string, client *http.Client, tr *tracer, d time.Duration) (warm, measured *serveClient) {
	warm = &serveClient{srv: srv, base: base, client: client}
	warm.closedLoop(d, newSample())
	return warm, &serveClient{srv: srv, base: base, client: client, tr: tr}
}

// nominal drives the nominal traffic for dur: short jobs, with kills
// when asked, elastic resizes and the status poller.
func (s *serveClient) nominal(rng *rand.Rand, dur time.Duration, out *sample, kills bool) {
	arrivals := schedule(rng, srvRate, dur, kills)
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() { defer bg.Done(); s.poll(stop) }()
	for i := 0; i < srvElastic; i++ {
		bg.Add(1)
		go func() { defer bg.Done(); s.elastic(stop) }()
	}
	s.cpu = startCPUSampler(srvCPUWindow, 1)
	results := s.drive(arrivals, time.Now())
	out.addCPU(s.cpu)
	s.cpu = nil
	close(stop)
	bg.Wait()

	for _, r := range results {
		s.attempted++
		out.add("job", r.latency)
		if r.tenant == "quiet" {
			out.add("job.quiet", r.latency)
		}
		if r.killedID != "" {
			out.sum("kills", 1)
		}
		if r.killed {
			out.sum("kills_landed", 1)
		}
		if r.refused {
			out.sum("refused", 1)
			s.failOp("%s job refused", r.tenant)
		}
		if r.hung != "" {
			out.sum("hung."+r.hung, 1)
		}
		if !r.refused && r.hung == "" {
			out.add("queued", float64(r.queuedMs))
			out.add("running", float64(r.runningMs))
		}
	}
	out.add("resize", s.resizeMs...)
	out.add("submit", s.submitMs...)
	out.add("status", s.statusMs...)
	out.add("late", s.late.late...)
	if st, err := s.stats(); err == nil {
		out.sum("backlog", float64(st.Jobs["queued"]))
	}
	if s.tr != nil {
		// Each job's runtime timeline, also served at GET /jobs/{id}/trace.
		for _, r := range results {
			if rec, err := s.srv.Trace(r.killedID); r.killedID != "" && err == nil && rec != nil {
				for name, d := range recoveryPhases(rec.Events()) {
					out.add("trace."+name, d...)
				}
			}
		}
		for _, id := range s.elasticID {
			if rec, err := s.srv.Trace(id); err == nil && rec != nil {
				out.add("trace.view_commit", viewCommits(rec.Events())...)
			}
		}
	}
}

// closedLoop runs srvConns clients for dur, each submitting a short job
// without a kill and awaiting it before it sends the next, and records
// how many jobs completed per second.
func (s *serveClient) closedLoop(dur time.Duration, out *sample) {
	results := make([][]jobResult, srvConns)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := range results {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				now := time.Now()
				results[c] = append(results[c], s.runJob(arrival{tenant: srvTenants[c]}, now, now))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, rs := range results {
		for _, r := range rs {
			s.attempted++
			switch {
			case r.refused:
				s.failOp("%s job refused", r.tenant)
			case !math.IsInf(r.latency, 1):
				out.sum("closed_jobs", 1)
				out.add("closed_job", r.latency)
			}
		}
	}
	out.sum("closed_s", elapsed.Seconds())
}

func serveOutcome(s *sample) *outcome {
	o := newOutcome()
	all, quiet := s.D["job"], s.D["job.quiet"]
	p, tail, _ := all.tail()
	qp, qtail, _ := quiet.tail()
	o.e2e["setup_s"] = measure{s.D["setup"].median() / 1e3, "s", len(s.D["setup"]), "serve.New until /healthz answers, scaled by the host probe; median over servers"}
	o.e2e["cpu_ms_per_op"] = measure{s.D["cpu_window"].median(), "ms", len(s.D["cpu_window"]),
		fmt.Sprintf("process CPU time per short job done in the nominal phase (server, clients, elastic jobs and poller included), scaled by the host probe, median over %v windows", srvCPUWindow)}
	o.layer["p50_ms"] = measure{all.median(), "ms", len(all), fmt.Sprintf("serve.job_ms.p50: short job, due time to done, at %.0f/s", srvRate)}
	o.layer["tail_ms"] = measure{tail, "ms", len(all), fmt.Sprintf("serve.job_ms.p%g: the same jobs", p)}
	o.layer["event_ms"] = measure{s.D["resize"].median(), "ms", len(s.D["resize"]), "serve.resize_ms: POST /jobs/{id}/resize round trip (returns after commit)"}
	o.layer["rate_hz"] = measure{ratio(s.N["closed_jobs"], s.N["closed_s"]), "1/s", int(s.N["closed_jobs"]),
		fmt.Sprintf("in place of serve.max_rate_hz: short jobs completed per second by %d closed-loop clients, one per connection", srvConns)}

	late := lateness{late: s.D["late"]}
	lp50, lmax, lshare := late.summary(time.Millisecond)
	o.layer["serve.quiet_job_ms.tail"] = measure{qtail, "ms", len(quiet), fmt.Sprintf("p%g of the quiet tenant's jobs", qp)}
	medianLayer(o, s, "serve.submit_us", "submit", 1e3, "us", "POST /jobs round trip")
	medianLayer(o, s, "serve.status_us", "status", 1e3, "us", "GET /jobs/{id} from the poller")
	medianLayer(o, s, "serve.running_ms", "running", 1, "ms", "JobStatus.RunningMs")
	medianLayer(o, s, "serve.queued_ms", "queued", 1, "ms", "JobStatus.QueuedMs")
	o.layer["serve.rejected"] = measure{s.N["refused"], "count", len(all), "submissions refused, nominal phase and closed loop"}
	o.layer["serve.backlog"] = measure{s.N["backlog"], "count", srvSegments, "/stats jobs queued at the end of each nominal segment, summed"}
	o.layer["serve.lease_grants"] = measure{s.N["lease_grants"], "count", srvSegments + 1, "/stats spares granted_total, summed over servers"}
	o.layer["serve.lease_waits"] = measure{s.N["lease_waits"], "count", srvSegments + 1, "/stats spares queued_demands_total: demands that had to wait"}
	o.layer["serve.goroutines_left"] = measure{s.N["goroutines_left"], "count", srvSegments + 1, "goroutines still alive after every job of a child ended, summed over children"}
	o.layer["serve.lateness_ms"] = measure{lp50, "ms", len(late.late), fmt.Sprintf("generator lateness p50; max %.2f ms, %.1f%% of sends over 1 ms", lmax, 100*lshare)}
	phaseLayers(o, s)
	o.notef("open loop: Poisson arrivals at %.0f/s from %d tenants on %d keep-alive connections, in %d child processes of one server each",
		srvRate, len(srvTenants), srvConns, srvSegments)
	o.notef("%.0f kills sent, %.0f found their job running; %.0f goroutines left behind over all servers", s.N["kills"], s.N["kills_landed"], s.N["goroutines_left"])
	o.notef("hung short jobs: %.0f after every rank's checksum passed, %.0f before some rank reached its check, %.0f at their end (wrong), %.0f without a timeline",
		s.N["hung."+hungChecked], s.N["hung."+hungMidJob], s.N["hung."+hungAtEnd], s.N["hung."+hungNoTrace])
	o.notef("generator lateness: p50 %.3f ms, max %.2f ms, %.1f%% of sends over 1 ms late", lp50, lmax, 100*lshare)
	return o
}
