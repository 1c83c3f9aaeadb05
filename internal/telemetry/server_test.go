package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ftsg/internal/metrics"
	"ftsg/internal/mpi"
	"ftsg/internal/trace"
	"ftsg/internal/vtime"
)

func get(t *testing.T, srv *httptest.Server, path string) (string, *http.Response) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, body %q", path, resp.StatusCode, body)
	}
	return string(body), resp
}

// TestServerRoundTrip drives all four endpoints through httptest against a
// populated registry, a live recorder, and an introspection hub with a
// genuinely blocked world.
func TestServerRoundTrip(t *testing.T) {
	reg := metrics.New()
	reg.Counter("mpi.sent.messages").Add(12)
	rec := trace.New()
	rec.BeginSpan(1.0, 0, "solve", "steps 1..8").End(2.0)
	intro := &mpi.Introspection{}

	// Park rank 0 of a 2-rank world in a receive so /debug/ranks has a real
	// blocked op to show.
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := mpi.Run(mpi.Options{
			NProcs:     2,
			Machine:    vtime.OPL(),
			Introspect: intro,
			Entry: func(p *mpi.Proc) {
				c := p.World()
				if c.Rank() == 0 {
					_, _, _ = mpi.RecvOne[int](c, 1, 5)
					return
				}
				<-release
				_ = mpi.SendOne(c, 0, 5, 1)
			},
		})
		done <- err
	}()
	defer func() {
		close(release)
		if err := <-done; err != nil {
			t.Errorf("mpi.Run: %v", err)
		}
	}()

	srv := httptest.NewServer((&Server{Registry: reg, Trace: rec, Introspect: intro}).Handler())
	defer srv.Close()

	body, resp := get(t, srv, "/healthz")
	if body != "ok\n" {
		t.Errorf("/healthz = %q, want ok", body)
	}
	_ = resp

	body, resp = get(t, srv, "/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content-type = %q", ct)
	}
	if !strings.Contains(body, "mpi_sent_messages 12") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	body, resp = get(t, srv, "/debug/trace")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/debug/trace content-type = %q", ct)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("/debug/trace is not valid JSON: %v\n%s", err, body)
	}
	if !strings.Contains(body, "solve") {
		t.Errorf("/debug/trace missing the recorded span:\n%s", body)
	}

	// Poll /debug/ranks until the blocked receive is visible (the world
	// goroutines may still be starting up).
	deadline := time.Now().Add(5 * time.Second)
	for {
		body, resp = get(t, srv, "/debug/ranks")
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("/debug/ranks content-type = %q", ct)
		}
		var worlds []mpi.WorldSnapshot
		if err := json.Unmarshal([]byte(body), &worlds); err != nil {
			t.Fatalf("/debug/ranks is not valid JSON: %v\n%s", err, body)
		}
		if strings.Contains(body, "recv comm=0 src=1 tag=5") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/debug/ranks never showed the blocked receive:\n%s", body)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerNilEverything checks every endpoint degrades gracefully with no
// registry, recorder or introspection attached.
func TestServerNilEverything(t *testing.T) {
	srv := httptest.NewServer((&Server{}).Handler())
	defer srv.Close()

	if body, _ := get(t, srv, "/metrics"); body != "" {
		t.Errorf("/metrics with nil registry = %q, want empty", body)
	}
	body, _ := get(t, srv, "/debug/ranks")
	if strings.TrimSpace(body) != "[]" {
		t.Errorf("/debug/ranks with nil introspection = %q, want []", body)
	}
	body, _ = get(t, srv, "/debug/trace")
	if !strings.Contains(body, "traceEvents") {
		t.Errorf("/debug/trace with nil recorder = %q, want empty trace doc", body)
	}
	if body, _ := get(t, srv, "/healthz"); body != "ok\n" {
		t.Errorf("/healthz = %q", body)
	}
}

// TestServerStartStop checks Start binds an ephemeral port, serves, and
// stops cleanly.
func TestServerStartStop(t *testing.T) {
	reg := metrics.New()
	reg.Counter("up").Inc()
	s := &Server{Registry: reg}
	addr, stop, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "up 1") {
		t.Errorf("scrape = %q", body)
	}
	if err := stop(); err != nil {
		t.Errorf("stop: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("server still serving after stop")
	}
}
