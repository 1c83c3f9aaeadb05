package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer, on the host
// clock. Spans are recorded by the benchmark's own code around the public
// functions it calls; spans inside the program are a later issue.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0: a root span of its pass
	Pass    string  `json:"pass"`   // "<workload>/seed<n>": shared by every span of one traced pass
	Name    string  `json:"name"`
	Rank    int     `json:"rank"` // simulated rank the span ran on; -1 for the driver
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps a traced pass's spans in memory; a nil tracer records
// nothing, so the untraced passes run the same code without the cost.
type tracer struct {
	pass  string
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(pass string) *tracer {
	return &tracer{pass: pass, epoch: time.Now()}
}

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.epoch).Nanoseconds()) / 1e3
}

// add records a closed span and returns its id.
func (t *tracer) add(name string, parent, rank int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Pass: t.pass, Name: name, Rank: rank,
		StartUS: t.us(start), EndUS: t.us(end),
	})
	return id
}

// begin opens a span on the driver's track so that spans recorded while it
// runs can name it as their parent; finish closes it.
func (t *tracer) begin(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, -1, now, now)
}

func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	end := t.us(time.Now())
	t.mu.Lock()
	t.spans[id-1].EndUS = end
	t.mu.Unlock()
}

// writeTrace writes every traced pass's spans as one JSON document.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	doc := struct {
		Clock string `json:"clock"`
		Spans []span `json:"spans"`
	}{Clock: "host microseconds since the start of the span's pass", Spans: spans}
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuShares folds a CPU profile's flat samples by package into the four
// shares the benchmark reports — the only outside view into core.Run and
// the harness, whose insides the benchmark cannot wrap in spans.
func cpuShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=100000", "-nodefraction=0", profile)
	// pprof must not fall back to $HOME/pprof for scratch files.
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(profile))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return foldTop(string(out)), nil
}

// foldTop parses `pprof -top` text. Rows look like
//
//	flat  flat%   sum%        cum   cum%
//	1.2s 10.00% 10.00%      2.4s 20.00%  ftsg/internal/mpi.(*World).rvzPoll
//
// and only the flat% column and the symbol are used.
func foldTop(text string) map[string]float64 {
	shares := map[string]float64{"runtime": 0, "mpi": 0, "kernels": 0, "other": 0}
	var total float64
	inTable := false
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if !inTable {
			inTable = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		shares[cpuBucket(strings.Join(f[5:], " "))] += pct
		total += pct
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares
}

func cpuBucket(symbol string) string {
	has := func(prefixes ...string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(symbol, p) {
				return true
			}
		}
		return false
	}
	switch {
	case has("ftsg/internal/mpi.", "ftsg/internal/recovery.", "ftsg/internal/vtime.", "ftsg/internal/topo."):
		return "mpi"
	case has("ftsg/internal/grid.", "ftsg/internal/pde.", "ftsg/internal/combine.", "ftsg/internal/ftcomb.", "math."):
		return "kernels"
	case has("runtime.", "runtime/", "internal/runtime/", "sync.", "sync/", "internal/sync.", "gogo", "memeqbody", "aeshashbody"):
		return "runtime"
	}
	return "other"
}
