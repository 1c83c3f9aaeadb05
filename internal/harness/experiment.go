package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strings"

	"ftsg/internal/core"
)

// An Experiment is one table of the paper's evaluation, or of the
// extensions beyond it, as cmd/experiments prints it.
type Experiment struct {
	Name   string // the -experiment value
	Figure string // the paper's table or figure; "" for an extension
	// Run runs the experiment and writes its text table, or its CSV when
	// csv is set.
	Run func(o Options, w io.Writer, csv bool) error
}

// Experiments lists every experiment in the order -experiment all runs
// them.
var Experiments = []Experiment{
	{"fig8", "Fig. 8", printer(Fig8, fig8Report)},
	{"table1", "Table I", printer(Table1, table1Report)},
	{"fig9", "Fig. 9", printer(Fig9, fig9Report)},
	{"fig10", "Fig. 10", printer(Fig10, fig10Report)},
	{"fig11", "Fig. 11", printer(Fig11, fig11Report)},
	{"levelsweep", "", printer(LevelSweep, levelSweepReport)},
	{"nodefailure", "", printer(NodeFailure, nodeFailureReport)},
	{"aclayers", "", printer(ACLayers, acLayersReport)},
	{"checkpointrule", "", printer(CheckpointRule, checkpointRuleReport)},
}

// printer runs a driver and writes its rows with its report.
func printer[R any](driver func(Options) ([]R, error), p report[R]) func(Options, io.Writer, bool) error {
	return func(o Options, w io.Writer, csv bool) error {
		rows, err := driver(o)
		if err != nil {
			return err
		}
		return p.write(w, rows, csv)
	}
}

// A point is one configuration of a sweep, run trials times; at names its
// sweep coordinates in an error.
type point struct {
	cfg    core.Config
	trials int
	at     string
}

// sweep runs every point on the experiment scheduler, in point order with
// each point's trials consecutive (trial tr runs with seed Seed + 101·tr),
// then maps each point's results, in trial order, to a row.
func sweep[R any](o Options, pts []point, row func(cfg core.Config, rs []*core.Result) R) ([]R, error) {
	s := newSched(o)
	res := make([][]*core.Result, len(pts))
	for i, p := range pts {
		res[i] = make([]*core.Result, 0, p.trials)
		s.AddTrials(p.cfg, p.trials, func(r *core.Result) {
			res[i] = append(res[i], r)
		}, func(err error) error {
			return fmt.Errorf("%s: %w", p.at, err)
		})
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	rows := make([]R, len(pts))
	for i, p := range pts {
		rows[i] = row(p.cfg, res[i])
	}
	return rows, nil
}

// avg is the mean of f over a point's trials: a sum in trial order from
// zero, divided by the trial count.
func avg[T int64 | float64](rs []*core.Result, f func(*core.Result) T) T {
	var sum T
	for _, r := range rs {
		sum += f(r)
	}
	return sum / T(len(rs))
}

// meanL1 is the pairwise mean of a point's approximation errors.
func meanL1(rs []*core.Result) float64 {
	errs := make([]float64, len(rs))
	for i, r := range rs {
		errs[i] = r.L1Error
	}
	return mean(errs)
}

// shown says in which renderings a column appears.
type shown int

const (
	always        shown = iota
	withTelemetry       // only when the rows carry telemetry
	csvOnly             // in the CSV, not in the text table
)

// A column is one column of a report. The text table prints its value with
// "%*"+verb at width; the CSV prints it with fmt.Sprint (%g for a float64).
type column[R any] struct {
	head, name string // text and CSV headers
	width      int
	verb       string
	value      func(R) any
	shown      shown
}

// A report prints one experiment's rows: title lines over a text table
// whose columns are joined by two spaces, or a CSV with a header record.
type report[R any] struct {
	title []string
	cols  []column[R]
	// telemetry reports whether a row was collected with
	// Options.Telemetry; nil when the report has no telemetry columns.
	telemetry func(R) bool
}

// write prints the rows as a text table, or as CSV.
func (p report[R]) write(w io.Writer, rows []R, csvOut bool) error {
	tele := p.telemetry != nil && slices.ContainsFunc(rows, p.telemetry)
	head := func(c column[R]) string { return fmt.Sprintf("%*s", c.width, c.head) }
	cell := func(c column[R], r R) string { return fmt.Sprintf("%*"+c.verb, c.width, c.value(r)) }
	if csvOut {
		head = func(c column[R]) string { return c.name }
		cell = func(c column[R], r R) string { return fmt.Sprint(c.value(r)) }
	}
	recs := make([][]string, len(rows)+1)
	for _, c := range p.cols {
		if c.shown == always || (c.shown == withTelemetry && tele) || (c.shown == csvOnly && csvOut) {
			recs[0] = append(recs[0], head(c))
			for i, r := range rows {
				recs[i+1] = append(recs[i+1], cell(c, r))
			}
		}
	}
	if csvOut {
		return csv.NewWriter(w).WriteAll(recs)
	}
	for _, t := range p.title {
		fmt.Fprintln(w, t)
	}
	for _, rec := range recs {
		fmt.Fprintln(w, strings.Join(rec, "  "))
	}
	return nil
}
