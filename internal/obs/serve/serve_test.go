package serve

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/monitor"
	"repro/internal/obs/query"
)

func testSite() *Site {
	st := monitor.NewStore(time.Minute, 60)
	for i := 0; i < 10; i++ {
		at := time.Duration(i)*time.Minute + 30*time.Second
		st.Record("req.total", at, float64(i+1))
		st.Record("cost.usd", at, float64(i+1)/8)
	}
	tr := obs.New()
	root := tr.StartChild(nil, "fleet.exemplars", "fleet", 0)
	child := tr.StartChild(root, "fn-00042", "fleet.exemplar", time.Second)
	child.ID = "00000000deadbeef"
	tr.End(child, 3*time.Second)
	tr.End(root, 3*time.Second)
	return &Site{
		OpenMetrics: func() []byte { return []byte("# TYPE x gauge\nx 1\n# EOF\n") },
		Engine:      &query.Engine{Store: st, Latest: 9*time.Minute + 30*time.Second},
		AlertLog:    "[0h00m] FIRING cold-fraction\n",
		Frames:      []string{"frame one\n", "frame two\nsecond line\n"},
		FindSpan:    tr.FindSpan,
	}
}

func get(t *testing.T, s *Site, url string) (int, string, string) {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, string(body), res.Header.Get("Content-Type")
}

func TestMetricsEndpoint(t *testing.T) {
	code, body, ct := get(t, testSite(), "/metrics")
	if code != 200 || !strings.HasSuffix(body, "# EOF\n") {
		t.Fatalf("code=%d body=%q", code, body)
	}
	if !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("content type = %q", ct)
	}
}

func TestQueryEndpointInstant(t *testing.T) {
	code, body, ct := get(t, testSite(), "/query?q=cost.usd+%2F+req.total")
	if code != 200 {
		t.Fatalf("code=%d body=%q", code, body)
	}
	want := `{"query":"cost.usd / req.total","type":"instant","at_us":600000000,"value":0.125}` + "\n"
	if body != want {
		t.Fatalf("body = %q, want %q", body, want)
	}
	if ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
}

func TestQueryEndpointRange(t *testing.T) {
	code, body, _ := get(t, testSite(), "/query?q=count(req.total%5B1m%5D)&step=5m")
	if code != 200 || !strings.Contains(body, `"type":"range"`) {
		t.Fatalf("code=%d body=%q", code, body)
	}
	if !strings.Contains(body, `"step_us":300000000`) {
		t.Fatalf("body = %q", body)
	}
}

func TestQueryEndpointAt(t *testing.T) {
	_, body, _ := get(t, testSite(), "/query?q=req.total&at=3m")
	if !strings.Contains(body, `"value":6`) { // 1+2+3 before the 3m boundary
		t.Fatalf("body = %q", body)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	for _, url := range []string{
		"/query",
		"/query?q=frob(x%5B1m%5D)",
		"/query?q=req.total&step=bogus",
		"/query?q=req.total&at=bogus",
	} {
		if code, body, _ := get(t, testSite(), url); code != 400 {
			t.Errorf("%s: code=%d body=%q, want 400", url, code, body)
		}
	}
}

func TestAlertsEndpoint(t *testing.T) {
	code, body, _ := get(t, testSite(), "/alerts")
	if code != 200 || !strings.Contains(body, "FIRING cold-fraction") {
		t.Fatalf("code=%d body=%q", code, body)
	}
}

func TestDashboardSSE(t *testing.T) {
	code, body, ct := get(t, testSite(), "/dashboard")
	if code != 200 || ct != "text/event-stream" {
		t.Fatalf("code=%d ct=%q", code, ct)
	}
	want := "id: 0\nevent: frame\ndata: frame one\n\n" +
		"id: 1\nevent: frame\ndata: frame two\ndata: second line\n\n" +
		"event: done\ndata: 2 frames\n\n"
	if body != want {
		t.Fatalf("body = %q, want %q", body, want)
	}
}

func TestSpanEndpoint(t *testing.T) {
	code, body, _ := get(t, testSite(), "/span?id=00000000deadbeef")
	if code != 200 || !strings.Contains(body, "fn-00042") {
		t.Fatalf("code=%d body=%q", code, body)
	}
	if code, _, _ := get(t, testSite(), "/span?id=ffff"); code != 404 {
		t.Fatalf("unknown span code=%d, want 404", code)
	}
	if code, _, _ := get(t, testSite(), "/span"); code != 400 {
		t.Fatalf("missing id code=%d, want 400", code)
	}
}

func TestEmptySiteDegrades(t *testing.T) {
	s := &Site{}
	if code, body, _ := get(t, s, "/metrics"); code != 200 || body != "# EOF\n" {
		t.Fatalf("empty metrics code=%d body=%q", code, body)
	}
	if code, _, _ := get(t, s, "/span?id=x"); code != 404 {
		t.Fatalf("empty span code=%d", code)
	}
	if code, body, _ := get(t, s, "/query?q=req.total"); code != 200 || !strings.Contains(body, `"value":0`) {
		t.Fatalf("empty query code=%d body=%q", code, body)
	}
	if code, _, _ := get(t, s, "/nope"); code != 404 {
		t.Fatalf("unknown path code=%d", code)
	}
	if code, body, _ := get(t, s, "/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index code=%d body=%q", code, body)
	}
}

// TestServerTimeouts: the site's server bounds every phase of a
// connection, so a client trickling its request (Slowloris) or idling on a
// kept-alive connection cannot hold it open indefinitely.
func TestServerTimeouts(t *testing.T) {
	srv := testSite().server(":0")
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": srv.ReadHeaderTimeout,
		"ReadTimeout":       srv.ReadTimeout,
		"WriteTimeout":      srv.WriteTimeout,
		"IdleTimeout":       srv.IdleTimeout,
	} {
		if d <= 0 {
			t.Errorf("%s = %v, want a positive timeout", name, d)
		}
	}
	if srv.ReadHeaderTimeout > srv.ReadTimeout {
		t.Errorf("ReadHeaderTimeout %v exceeds ReadTimeout %v", srv.ReadHeaderTimeout, srv.ReadTimeout)
	}
	if srv.Handler == nil || srv.Addr != ":0" {
		t.Errorf("server not wired to the site: addr %q, handler %v", srv.Addr, srv.Handler)
	}
}

// TestDashboardOutlivesTimeouts: a paced SSE stream longer than the
// server's read and write timeouts still arrives whole, because the write
// deadline moves forward per frame.
func TestDashboardOutlivesTimeouts(t *testing.T) {
	site := testSite()
	site.Frames = []string{"a\n", "b\n", "c\n", "d\n", "e\n"}
	site.FrameDelay = 100 * time.Millisecond
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = site.server("")
	// The stream takes ~400ms.
	ts.Config.ReadHeaderTimeout = 100 * time.Millisecond
	ts.Config.ReadTimeout = 150 * time.Millisecond
	ts.Config.WriteTimeout = 150 * time.Millisecond
	ts.Start()
	defer ts.Close()

	res, err := ts.Client().Get(ts.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatalf("stream cut after %d bytes: %v", len(body), err)
	}
	if !strings.HasSuffix(string(body), "event: done\ndata: 5 frames\n\n") {
		t.Fatalf("stream incomplete: %q", body)
	}
}

// Hostile query parameters get a 400 or a well-formed answer, never
// wrapped-around timestamps.
func TestQueryEndpointHostileParams(t *testing.T) {
	s := testSite()
	// A step longer than the replay, up to the largest duration, yields
	// only the from point.
	for _, step := range []string{"2562047h47m16.854775807s", "2562047h", "24h"} {
		code, body, _ := get(t, s, "/query?q=req.total&step="+step)
		if code != 200 || !strings.HasSuffix(body, `"points":[{"t_us":0,"v":0}]}`+"\n") {
			t.Errorf("step=%s: code=%d body=%q", step, code, body)
		}
	}
	// Non-positive and malformed steps are rejected.
	for _, step := range []string{"0", "0s", "-1m", "-2562047h", "1x", "5"} {
		if code, body, _ := get(t, s, "/query?q=req.total&step="+step); code != 400 {
			t.Errorf("step=%s: code=%d body=%q, want 400", step, code, body)
		}
	}
	// A negative at means the end of the replay, like no at at all.
	_, atEnd, _ := get(t, s, "/query?q=req.total")
	if code, body, _ := get(t, s, "/query?q=req.total&at=-5m"); code != 200 || body != atEnd {
		t.Errorf("at=-5m: code=%d body=%q, want %q", code, body, atEnd)
	}
	// A huge at evaluates past every sample: the whole replay's total.
	code, body, _ := get(t, s, "/query?q=req.total&at=2562047h")
	if code != 200 || !strings.Contains(body, `"at_us":9223369200000000,"value":55}`) {
		t.Errorf("at=2562047h: code=%d body=%q", code, body)
	}
}
