package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"testing"

	"mica"
)

// fuzzRoute is one route of the daemon, with how a fuzzed parameter
// enters its URL.
type fuzzRoute struct {
	method, path string
	// param places the fuzzed parameter: "" ignores it, "query" parses
	// it as the query string, "name" passes it as the upload label and
	// "id" as the job id path segment.
	param string
}

var fuzzRoutes = []fuzzRoute{
	{"GET", "/healthz", ""},
	{"GET", "/api/v1/benchmarks", ""},
	{"POST", "/api/v1/characterize", ""},
	{"POST", "/api/v1/traces", "name"},
	{"GET", "/api/v1/jobs/", "id"},
	{"GET", "/api/v1/similar", "query"},
	{"GET", "/api/v1/vectors", "query"},
	{"GET", "/api/v1/stats", ""},
	{"GET", "/api/v1/version", ""},
	{"GET", "/metrics", ""},
}

// target returns the request URL under base for parameter p, or false
// when p is not a query string a client could send.
func (r fuzzRoute) target(base, p string) (string, bool) {
	switch r.param {
	case "query":
		q, err := url.ParseQuery(p)
		if err != nil {
			return "", false
		}
		return base + r.path + "?" + q.Encode(), true
	case "name":
		return base + r.path + "?name=" + url.QueryEscape(p), true
	case "id":
		return base + r.path + url.PathEscape(p), true
	}
	return base + r.path, true
}

// FuzzServeRoutes drives every route of the daemon with arbitrary
// parameters and bodies, over a server whose tiny phase grid and job
// queue keep the work a request can queue small. The oracle: no
// request makes the server panic (a wrapped handler would answer 500,
// an unwrapped one drop the connection) or answer 5xx, since with a
// healthy store and trace directory every failure a request can cause
// is the client's. The seed corpus holds one valid and one malformed
// request per route.
func FuzzServeRoutes(f *testing.F) {
	phase := mica.PhaseConfig{IntervalLen: 200, MaxIntervals: 4, MaxK: 2, Seed: 1}
	st := buildTestStore(f, testBenchmarks[:2], phase)
	b, err := mica.BenchmarkByName(testBenchmarks[0])
	if err != nil {
		f.Fatal(err)
	}
	tracePath := filepath.Join(f.TempDir(), "seed.trc")
	if _, err := mica.RecordTrace(b, tracePath, 800); err != nil {
		f.Fatal(err)
	}
	trc, err := os.ReadFile(tracePath)
	if err != nil {
		f.Fatal(err)
	}
	_, ts := startServer(f, st, Config{
		Phase: phase, Workers: 1, QueueCap: 2, Retain: 16,
		TraceDir: f.TempDir(), MaxTraceBytes: 1 << 20,
	})

	seeds := []struct {
		param string
		body  []byte
	}{
		{"", nil}, {"", []byte("{")}, // healthz
		{"", nil}, {"", []byte{0xff}}, // benchmarks
		{"", []byte(`{"benchmark":"MiBench/sha/large"}`)}, {"", []byte(`{"benchmark":7}`)}, // characterize
		{"sha", trc}, {"a/b\x00", trc[:len(trc)/2]}, // traces
		{"job-000001", nil}, {"../..", nil}, // jobs
		{"bench=MiBench/sha/large&k=1", nil}, {"bench=MiBench/sha/large&k=-1&space=phase", nil}, // similar
		{"bench=MiBench/sha/large&from=1&count=2", nil}, {"bench=MiBench/sha/large&count=9223372036854775807&from=x", nil}, // vectors
		{"", nil}, {"", []byte("junk")}, // stats
		{"", nil}, {"", []byte("junk")}, // version
		{"", nil}, {"", []byte{0}}, // metrics
	}
	for i, s := range seeds {
		f.Add(uint8(i/2), s.param, s.body)
	}
	f.Fuzz(func(t *testing.T, route uint8, param string, body []byte) {
		r := fuzzRoutes[int(route)%len(fuzzRoutes)]
		target, ok := r.target(ts.URL, param)
		if !ok {
			return
		}
		req, err := http.NewRequest(r.method, target, bytes.NewReader(body))
		if err != nil {
			return
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", r.method, target, err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatalf("%s %s: reading body: %v", r.method, target, err)
		}
		if resp.StatusCode >= 500 {
			t.Fatalf("%s %s: status %d for a client request", r.method, target, resp.StatusCode)
		}
	})
}
