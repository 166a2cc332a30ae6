package loadflow

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/olaplab/gmdj/internal/obs"
)

// Result is one scenario's outcome.
type Result struct {
	Scenario string       `json:"scenario"`
	Target   string       `json:"target"`
	Steps    []StepResult `json:"steps"`
}

// StepResult aggregates one step: request counts by typed outcome kind,
// the non-typed violations (the chaos harness's failure signal), and
// latency percentiles over successful requests.
type StepResult struct {
	Name     string `json:"name"`
	Requests int64  `json:"requests"`
	OK       int64  `json:"ok"`
	// Aborted counts requests the client hung up on by design
	// (AbortRate); their outcomes are the client's doing, not the
	// server's, and are excluded from the typed-error check.
	Aborted int64 `json:"aborted"`
	// ByKind counts error responses per taxonomy kind.
	ByKind map[string]int64 `json:"by_kind,omitempty"`
	// NonTyped counts responses that are neither 200 nor a known typed
	// error kind — any value above zero fails the harness.
	NonTyped        int64            `json:"non_typed"`
	NonTypedSamples []string         `json:"non_typed_samples,omitempty"`
	Latency         obs.HistSnapshot `json:"latency_ns"`
	Elapsed         time.Duration    `json:"elapsed_ns"`
}

// Runner executes scenarios against one olapd endpoint.
type Runner struct {
	// Target is the base URL (e.g. "http://127.0.0.1:8080"); overrides
	// the scenario's own target when non-empty.
	Target string
	// Client is the HTTP client (default: shared transport tuned for
	// the scenario's peak concurrency).
	Client *http.Client
	// KnownKinds is the set of typed error kinds (from serve.KnownKinds;
	// injected as data to keep loadflow free of a serve dependency).
	KnownKinds []string
	// Log receives progress lines (nil = silent).
	Log func(format string, args ...any)
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		r.Log(format, args...)
	}
}

// Run executes the scenario's steps in order.
func (r *Runner) Run(ctx context.Context, sc *Scenario) (*Result, error) {
	target := r.Target
	if target == "" {
		target = sc.Target
	}
	if target == "" {
		return nil, fmt.Errorf("loadflow: no target URL (scenario %q has none and -target not set)", sc.Name)
	}
	target = strings.TrimSuffix(target, "/")
	client := r.Client
	if client == nil {
		maxConc := 1
		for _, st := range sc.Steps {
			if st.Concurrency > maxConc {
				maxConc = st.Concurrency
			}
		}
		client = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        maxConc + 16,
				MaxIdleConnsPerHost: maxConc + 16,
			},
		}
	}
	known := map[string]bool{}
	for _, k := range r.KnownKinds {
		known[k] = true
	}
	seed := sc.Seed
	if seed == 0 {
		seed = 1
	}
	res := &Result{Scenario: sc.Name, Target: target}
	for i := range sc.Steps {
		st := &sc.Steps[i]
		r.logf("step %q: %d workers, duration=%v requests=%d abort_rate=%v",
			st.Name, st.Concurrency, st.Duration, st.Requests, st.AbortRate)
		sr, err := r.runStep(ctx, client, target, sc, st, known, seed+int64(i)*7919)
		if err != nil {
			return res, err
		}
		res.Steps = append(res.Steps, *sr)
		r.logf("step %q: %d requests, %d ok, %d aborted, %d non-typed, p50=%v p99=%v",
			st.Name, sr.Requests, sr.OK, sr.Aborted, sr.NonTyped,
			time.Duration(sr.Latency.P50), time.Duration(sr.Latency.P99))
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
	}
	return res, nil
}

// stepState is the shared accounting for one step's worker pool.
type stepState struct {
	requests atomic.Int64
	ok       atomic.Int64
	aborted  atomic.Int64
	nonTyped atomic.Int64

	hist *obs.Histogram

	mu      sync.Mutex
	byKind  map[string]int64
	samples []string
}

func (ss *stepState) countKind(kind string) {
	ss.mu.Lock()
	ss.byKind[kind]++
	ss.mu.Unlock()
}

func (ss *stepState) sample(s string) {
	ss.mu.Lock()
	if len(ss.samples) < 8 {
		ss.samples = append(ss.samples, s)
	}
	ss.mu.Unlock()
}

func (r *Runner) runStep(ctx context.Context, client *http.Client, target string,
	sc *Scenario, st *Step, known map[string]bool, seed int64) (*StepResult, error) {

	tenant := st.Tenant
	if tenant == "" {
		tenant = sc.Tenant
	}
	ss := &stepState{hist: obs.NewHistogram(), byKind: map[string]int64{}}

	stepCtx := ctx
	var cancel context.CancelFunc
	if st.Duration > 0 {
		stepCtx, cancel = context.WithTimeout(ctx, time.Duration(st.Duration))
		defer cancel()
	}
	// A requests cap is claimed atomically so the total is exact even
	// with uneven worker progress.
	budget := st.Requests
	claim := func() bool {
		if budget <= 0 {
			return stepCtx.Err() == nil
		}
		return ss.requests.Load() < budget && stepCtx.Err() == nil
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < st.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Deterministic per-worker stream: same seed, same request
			// sequence, abort pattern, and template arguments.
			rng := rand.New(rand.NewSource(seed + int64(w)*104729))
			if st.Ramp > 0 && st.Concurrency > 1 {
				delay := time.Duration(int64(st.Ramp) * int64(w) / int64(st.Concurrency))
				select {
				case <-time.After(delay):
				case <-stepCtx.Done():
					return
				}
			}
			for claim() {
				if budget > 0 && ss.requests.Add(1) > budget {
					ss.requests.Add(-1)
					return
				} else if budget <= 0 {
					ss.requests.Add(1)
				}
				r.issue(stepCtx, client, target, tenant, st, ss, known, rng)
				if st.Think > 0 {
					select {
					case <-time.After(time.Duration(st.Think)):
					case <-stepCtx.Done():
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	sr := &StepResult{
		Name:     st.Name,
		Requests: ss.requests.Load(),
		OK:       ss.ok.Load(),
		Aborted:  ss.aborted.Load(),
		NonTyped: ss.nonTyped.Load(),
		ByKind:   ss.byKind,
		Latency:  ss.hist.Snapshot(),
		Elapsed:  time.Since(start),
	}
	sr.NonTypedSamples = ss.samples
	return sr, nil
}

// wireError mirrors serve's errorResponse body.
type wireError struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// issue sends one request and classifies its outcome.
func (r *Runner) issue(ctx context.Context, client *http.Client, target, tenant string,
	st *Step, ss *stepState, known map[string]bool, rng *rand.Rand) {

	q := pickTemplate(st.Queries, rng)
	body := map[string]any{"sql": expand(q.SQL, rng)}
	if q.Strategy != "" {
		body["strategy"] = q.Strategy
	}
	timeoutMS := q.TimeoutMS
	if timeoutMS == 0 && st.Timeout > 0 {
		timeoutMS = time.Duration(st.Timeout).Milliseconds()
	}
	if timeoutMS > 0 {
		body["timeout_ms"] = timeoutMS
	}
	raw, err := json.Marshal(body)
	if err != nil {
		ss.nonTyped.Add(1)
		ss.sample("marshal: " + err.Error())
		return
	}

	// A fraction of requests model disconnecting clients: hang up
	// shortly after sending. Their outcomes (transport errors) are by
	// design and never count against the server.
	aborting := st.AbortRate > 0 && rng.Float64() < st.AbortRate
	reqCtx := ctx
	var cancel context.CancelFunc
	if aborting {
		reqCtx, cancel = context.WithTimeout(ctx, time.Duration(st.AbortAfter))
	}
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, target+"/query", bytes.NewReader(raw))
	if err != nil {
		if cancel != nil {
			cancel()
		}
		ss.nonTyped.Add(1)
		ss.sample("request: " + err.Error())
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-OLAP-Tenant", tenant)
	}
	begin := time.Now()
	resp, err := client.Do(req)
	if cancel != nil {
		defer cancel()
	}
	if err != nil {
		if aborting || ctx.Err() != nil {
			ss.aborted.Add(1)
			return
		}
		ss.nonTyped.Add(1)
		ss.sample("transport: " + err.Error())
		return
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		if aborting || ctx.Err() != nil {
			ss.aborted.Add(1)
			return
		}
		ss.nonTyped.Add(1)
		ss.sample("read body: " + err.Error())
		return
	}
	// If the response beat an intended hangup, count it normally.
	if resp.StatusCode == http.StatusOK {
		ss.ok.Add(1)
		ss.hist.RecordDuration(time.Since(begin))
		return
	}
	var we wireError
	if json.Unmarshal(payload, &we) == nil && known[we.Kind] {
		ss.countKind(we.Kind)
		return
	}
	ss.nonTyped.Add(1)
	ss.sample(fmt.Sprintf("status %d: %.200s", resp.StatusCode, payload))
}

func pickTemplate(qs []QueryTemplate, rng *rand.Rand) *QueryTemplate {
	total := 0
	for i := range qs {
		total += qs[i].Weight
	}
	n := rng.Intn(total)
	for i := range qs {
		n -= qs[i].Weight
		if n < 0 {
			return &qs[i]
		}
	}
	return &qs[len(qs)-1]
}

var (
	randintRe = regexp.MustCompile(`\$RANDINT\((-?\d+),(-?\d+)\)`)
	pickRe    = regexp.MustCompile(`\$PICK\(([^)]*)\)`)
)

// expand substitutes $RANDINT(lo,hi) (inclusive) and $PICK(a|b|c)
// placeholders from the worker's PRNG.
func expand(sql string, rng *rand.Rand) string {
	sql = randintRe.ReplaceAllStringFunc(sql, func(m string) string {
		sub := randintRe.FindStringSubmatch(m)
		lo, _ := strconv.ParseInt(sub[1], 10, 64)
		hi, _ := strconv.ParseInt(sub[2], 10, 64)
		if hi < lo {
			lo, hi = hi, lo
		}
		return strconv.FormatInt(lo+rng.Int63n(hi-lo+1), 10)
	})
	sql = pickRe.ReplaceAllStringFunc(sql, func(m string) string {
		sub := pickRe.FindStringSubmatch(m)
		opts := strings.Split(sub[1], "|")
		return opts[rng.Intn(len(opts))]
	})
	return sql
}
