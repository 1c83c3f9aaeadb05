package metrics

import (
	"strings"
	"testing"
)

func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

// TestPrometheusGolden pins the exact exposition of one instrument of every
// kind: names sanitized and sorted, histogram buckets cumulative with the
// trailing empty tail elided, floats in shortest round-trip form.
func TestPrometheusGolden(t *testing.T) {
	r := New()
	// Deliberately registered out of name order: the writer must sort.
	r.Counter("mpi.sent.messages").Add(42)
	r.Counter("checkpoint.writes").Add(7)
	r.Gauge("world.size").Set(64)
	r.TimeSum("solve.time").Add(1.5)
	// 3 ns lands in the [2,4) ns bucket (upper bound 4e-9 s).
	r.Histogram("op.latency").Observe(3e-9)
	r.CounterVec("rank.msgs").At(1).Add(5) // grows indices 0 and 1
	r.TimeSumVec("rank.busy").At(0).Add(0.25)

	want := strings.Join([]string{
		`# TYPE checkpoint_writes counter`,
		`checkpoint_writes 7`,
		`# TYPE mpi_sent_messages counter`,
		`mpi_sent_messages 42`,
		`# TYPE world_size gauge`,
		`world_size 64`,
		`# TYPE solve_time_seconds counter`,
		`solve_time_seconds 1.5`,
		`# TYPE op_latency_seconds histogram`,
		`op_latency_seconds_bucket{le="1e-09"} 0`,
		`op_latency_seconds_bucket{le="2e-09"} 0`,
		`op_latency_seconds_bucket{le="4e-09"} 1`,
		`op_latency_seconds_bucket{le="+Inf"} 1`,
		`op_latency_seconds_sum 3e-09`,
		`op_latency_seconds_count 1`,
		`# TYPE rank_msgs counter`,
		`rank_msgs{index="0"} 0`,
		`rank_msgs{index="1"} 5`,
		`# TYPE rank_busy_seconds counter`,
		`rank_busy_seconds{index="0"} 0.25`,
	}, "\n") + "\n"

	if got := expose(t, r); got != want {
		t.Errorf("exposition mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPrometheusNilRegistry checks the nil registry scrapes as an empty
// (valid) body.
func TestPrometheusNilRegistry(t *testing.T) {
	if got := expose(t, nil); got != "" {
		t.Errorf("nil registry exposed %q, want empty", got)
	}
}

// TestPrometheusDeterministicAcrossMerges checks that folding per-run
// registries into an aggregate in a fixed submission order yields a
// byte-identical exposition however the fold is repeated, and that the
// merged values are the sums.
func TestPrometheusDeterministicAcrossMerges(t *testing.T) {
	mk := func(n int64, s float64) *Registry {
		r := New()
		r.Counter("runs.messages").Add(n)
		r.TimeSum("runs.time").Add(s)
		r.Histogram("runs.lat").Observe(float64(n) * 1e-9)
		r.CounterVec("runs.per.rank").At(2).Add(n)
		return r
	}
	fold := func() string {
		agg := New()
		agg.Merge(mk(3, 0.5))
		agg.Merge(mk(5, 0.25))
		return expose(t, agg)
	}
	a, b := fold(), fold()
	if a != b {
		t.Errorf("merge exposition not deterministic:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{"runs_messages 8\n", "runs_time_seconds 0.75\n", `runs_per_rank{index="2"} 8`} {
		if !strings.Contains(a, want) {
			t.Errorf("merged exposition missing %q:\n%s", want, a)
		}
	}
}

// TestPromName pins the sanitization rules.
func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"mpi.sent.bytes": "mpi_sent_bytes",
		"already_ok":     "already_ok",
		"dash-and.dot":   "dash_and_dot",
		"9lives":         "_9lives",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
