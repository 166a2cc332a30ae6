package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	gmdj "github.com/olaplab/gmdj"
	"github.com/olaplab/gmdj/internal/datagen"
	"github.com/olaplab/gmdj/internal/serve"
)

// serve_small: olapd's request path, in-process. The database and the
// server are configured the way cmd/olapd configures them with no flags
// (observability on with a 100 ms slow-query threshold, a 65 536-event
// trace ring, 30 s default and 5 min maximum deadline, default tenant
// quotas), because that is what someone who starts olapd gets.

const (
	serveFlows = 10_000
	// Each cycle is ten requests: the eight hot shapes once each and two
	// statements the plan cache has never seen, so 80 % of requests hit
	// the cache and 20 % miss it, by construction.
	serveMissPerCycle = 2
	// freshAlias marks where a never-used table alias goes in a miss
	// statement; a new alias is a new normalised text, so the statement
	// pays parsing, resolution and the full SubqueryToGMDJ rewrite.
	freshAlias = "@A"
)

var serveTenants = []string{"tenant-a", "tenant-b"}

type serveWorkload struct {
	seed   uint64
	flows  int
	hot    []shape
	miss   []shape
	oracle oracle
}

func (w *serveWorkload) name() string     { return "serve_small" }
func (w *serveWorkload) clients() int     { return serveClients() }
func (w *serveWorkload) maxCycles() int   { return 0 }
func (w *serveWorkload) orc() oracle      { return w.oracle }
func (w *serveWorkload) inputs() []*table { return nil }
func (w *serveWorkload) classes() []string {
	return append(shapeNames(w.hot), shapeNames(w.miss)...)
}

func (w *serveWorkload) prepare(seed uint64, scale float64) error {
	w.seed = seed
	w.flows = scaled(serveFlows, scale)

	ips := make([][]any, literalPoolSize)
	for i := range ips {
		ips[i] = []any{fmt.Sprintf("10.0.0.%d", 1+i*2)}
	}
	protos := []string{"FTP", "SMTP", "DNS", "HTTP"}
	dests := []string{"167.167.167.0", "168.168.168.0", "169.169.169.0"}
	ints := func(lo, step int64) [][]any {
		out := make([][]any, literalPoolSize)
		for i := range out {
			out[i] = []any{lo + int64(i)*step}
		}
		return out
	}
	strInt := func(strs []string, lo, step int64) [][]any {
		out := make([][]any, literalPoolSize)
		for i := range out {
			out[i] = []any{strs[i%len(strs)], lo + int64(i)*step}
		}
		return out
	}
	// About flows/40 flows per user, a sixth of them SMTP; the pool
	// straddles that count from below.
	smtpPerUser := int64(w.flows)/240 - 8
	if smtpPerUser < 0 {
		smtpPerUser = 0
	}
	twoInts := make([][]any, literalPoolSize)
	for i := range twoInts {
		twoInts[i] = []any{int64(940_000 + 3_000*i), int64(2 + i)}
	}
	w.hot = []shape{
		{name: "point", lits: ips,
			sql: `SELECT u.Name FROM User u WHERE u.IPAddress = '%s'`},
		{name: "hours_exists", lits: strInt(protos, 500_000, 25_000),
			sql: `SELECT h.HourDsc FROM Hours h WHERE EXISTS (SELECT * FROM Flow f WHERE f.StartTime >= h.StartInterval AND f.StartTime < h.EndInterval AND f.Protocol = '%s' AND f.NumBytes > %d)`},
		{name: "not_in", lits: strInt(dests, 100_000, 50_000),
			sql: `SELECT u.Name FROM User u WHERE u.IPAddress NOT IN (SELECT f.SourceIP FROM Flow f WHERE f.DestIP = '%s' AND f.NumBytes > %d)`},
		{name: "nest3", lits: twoInts,
			sql: `SELECT u.Name FROM User u WHERE EXISTS (SELECT * FROM Flow f WHERE f.SourceIP = u.IPAddress AND f.NumBytes > %d AND EXISTS (SELECT * FROM Hours h WHERE h.StartInterval <= f.StartTime AND f.StartTime < h.EndInterval AND h.HourDsc > %d))`},
		{name: "in", lits: ints(2_000, 1_500),
			sql: `SELECT u.Name FROM User u WHERE u.IPAddress IN (SELECT f.SourceIP FROM Flow f WHERE f.Protocol = 'DNS' AND f.NumBytes < %d)`},
		{name: "count_cmp", lits: ints(smtpPerUser, 1),
			sql: `SELECT u.Name FROM User u WHERE %d < (SELECT COUNT(*) FROM Flow f WHERE f.SourceIP = u.IPAddress AND f.Protocol = 'SMTP')`},
		{name: "scan", lits: ints(970_000, 2_000),
			sql: `SELECT f.SourceIP, f.NumBytes FROM Flow f WHERE f.NumBytes > %d`},
		{name: "not_exists", lits: strInt(dests, 700_000, 15_000),
			sql: `SELECT u.Name FROM User u WHERE NOT EXISTS (SELECT * FROM Flow f WHERE f.SourceIP = u.IPAddress AND f.DestIP = '%s' AND f.NumBytes > %d)`},
	}

	// Sixteen generated statements: four subquery forms, each over four
	// conjunct sets, every one structurally different from the hot
	// shapes and from each other.
	forms := []struct{ name, sql string }{
		{"exists", `SELECT u.Name FROM User u WHERE EXISTS (SELECT * FROM Flow @A WHERE @A.SourceIP = u.IPAddress AND %s)`},
		{"not_exists", `SELECT u.Name FROM User u WHERE NOT EXISTS (SELECT * FROM Flow @A WHERE @A.SourceIP = u.IPAddress AND %s)`},
		{"in", `SELECT u.IPAddress FROM User u WHERE u.IPAddress IN (SELECT @A.SourceIP FROM Flow @A WHERE %s)`},
		{"not_in", `SELECT u.IPAddress FROM User u WHERE u.IPAddress NOT IN (SELECT @A.SourceIP FROM Flow @A WHERE %s)`},
	}
	conjuncts := []string{
		`@A.Protocol = 'FTP' AND @A.NumBytes > %d`,
		`@A.DestIP = '169.169.169.0' AND @A.NumBytes < %d`,
		`@A.StartTime < 600 AND @A.Protocol = 'SMTP' AND @A.NumBytes > %d`,
		`@A.StartTime >= 720 AND @A.NumBytes > %d AND @A.DestIP = '167.167.167.0'`,
	}
	for _, f := range forms {
		for ci, c := range conjuncts {
			w.miss = append(w.miss, shape{
				name: fmt.Sprintf("miss_%s_%d", f.name, ci),
				sql:  fmt.Sprintf(f.sql, c),
				lits: ints(400_000, 30_000)[:4],
			})
		}
	}

	db := gmdj.OpenNetflowSample(w.flows)
	defer db.Close()
	w.oracle = oracle{}
	if err := recordShapes(w.oracle, db, w.hot); err != nil {
		return err
	}
	// An alias does not change a statement's answer, so one evaluation
	// under a fixed alias stands for every fresh-alias issue.
	for si := range w.miss {
		s := &w.miss[si]
		for li := range s.lits {
			if err := w.oracle.record(db, s.key(li), strings.ReplaceAll(s.text(li), freshAlias, "q0")); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *serveWorkload) cycle(client, i int) []op {
	rng := datagen.NewPRNG(mix(w.seed, client, i))
	ops := make([]op, 0, len(w.hot)+serveMissPerCycle)
	for si := range w.hot {
		li := poolIndex(w.seed, client, si, i)
		ops = append(ops, op{kind: opQuery, class: si, sql: w.hot[si].text(li), key: w.hot[si].key(li)})
	}
	for k := 0; k < serveMissPerCycle; k++ {
		si := rng.Intn(len(w.miss))
		li := rng.Intn(len(w.miss[si].lits))
		ops = append(ops, op{kind: opQuery, class: len(w.hot) + si, fresh: true,
			sql: w.miss[si].text(li), key: w.miss[si].key(li)})
	}
	for j := len(ops) - 1; j > 0; j-- { // seeded shuffle
		k := rng.Intn(j + 1)
		ops[j], ops[k] = ops[k], ops[j]
	}
	return ops
}

func (w *serveWorkload) open(string) (sut, error) {
	db := gmdj.OpenNetflowSample(w.flows)
	db.EnableObservability(gmdj.ObsConfig{SlowQueryThreshold: 100 * time.Millisecond})
	db.EnableTracing(65536)
	srv := serve.NewServer(db, serve.Config{DefaultTimeout: 30 * time.Second, MaxTimeout: 5 * time.Minute})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	s := &httpSUT{
		db: db, srv: srv,
		hs:   &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String() + "/query",
		done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: w.clients(), MaxIdleConnsPerHost: w.clients(),
		}},
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	if err := warmUp(w, s, true); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (w *serveWorkload) newStager(dir string) (*stager, error) {
	gen := datagen.DefaultNetflow()
	gen.Flows = w.flows
	return newStager(datagen.Netflow(gen), 0, dir)
}

// httpSUT is the server behind a real loopback listener with
// keep-alive clients.
type httpSUT struct {
	db     *gmdj.DB
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan error // the Serve goroutine's exit
}

func (s *httpSUT) counters() sutCounters { return countersOf(s.db) }

// close drains the server, stops the listener and waits for the Serve
// goroutine, so nothing the run started outlives it.
func (s *httpSUT) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drainErr := s.srv.Drain(ctx)
	shutErr := s.hs.Shutdown(ctx)
	<-s.done
	s.client.CloseIdleConnections()
	closeErr := s.db.Close()
	for _, err := range []error{drainErr, shutErr, closeErr} {
		if err != nil {
			return err
		}
	}
	return nil
}

// queryBody is the part of the server's success response the client
// reads.
type queryBody struct {
	Rows [][]any `json:"rows"`
}

func requestBody(sql string) []byte {
	body, _ := json.Marshal(map[string]string{"sql": sql}) // a string map cannot fail to marshal
	return body
}

// decodeRows parses a success body; numbers stay json.Number so that
// digest sees every digit the server sent.
func decodeRows(body []byte) ([][]any, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var qb queryBody
	if err := dec.Decode(&qb); err != nil {
		return nil, fmt.Errorf("response body: %w", err)
	}
	return qb.Rows, nil
}

// exec sends one request. The latency is request sent → response body
// fully read; decoding and checking the rows happens after the clock
// stops. Any status but 200 — a 429 shed included — is a failure.
func (s *httpSUT) exec(client int, o *op, uniq uint64) (expect, time.Duration, error) {
	if o.kind != opQuery {
		return expect{}, 0, fmt.Errorf("serve_small issues queries only")
	}
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(requestBody(o.text(uniq))))
	if err != nil {
		return expect{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.TenantHeader, serveTenants[client%len(serveTenants)])
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return expect{}, time.Since(start), err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return expect{}, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return expect{}, lat, fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, body)
	}
	rows, err := decodeRows(body)
	if err != nil {
		return expect{}, lat, err
	}
	return digest(rows), lat, nil
}

// viaHandler sends the statement through Handler().ServeHTTP with no
// socket, which leaves the admission gate, JSON and the handler's own
// work but takes the network stack out.
func (s *httpSUT) viaHandler(o *op, uniq uint64) (time.Duration, error) {
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(requestBody(o.text(uniq))))
	req.Header.Set(serve.TenantHeader, serveTenants[0])
	rr := httptest.NewRecorder()
	start := time.Now()
	s.srv.Handler().ServeHTTP(rr, req)
	lat := time.Since(start)
	if rr.Code != http.StatusOK {
		return lat, fmt.Errorf("handler: HTTP %d: %.200s", rr.Code, rr.Body.Bytes())
	}
	return lat, nil
}

// direct runs the statement straight on the server's database, the
// call the handler itself makes.
func (s *httpSUT) direct(o *op, uniq uint64) (time.Duration, error) {
	start := time.Now()
	_, err := s.db.QueryStrategyContext(context.Background(), o.text(uniq), gmdj.GMDJOpt)
	return time.Since(start), err
}
