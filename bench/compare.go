package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/stats"
)

// minPairs is the fewest alternating (base, change) run pairs a comparison
// accepts.
const minPairs = 10

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the base median by which the metric may get
	// worse; per-layer metrics have none.
	Bound *float64 `json:"bound"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// readResults reads a file of result lines, one run per non-empty line.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// Verdicts of a comparison.
const (
	verdictWin        = "win"
	verdictRegression = "regression"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
	// verdictNoClaim is a metric without a bound that did not win: no
	// regression can be judged.
	verdictNoClaim = "-"
)

// judgement is the comparison of one metric over paired runs.
type judgement struct {
	baseQ, changeQ [3]float64 // quartiles: q1, median, q3
	wins, pairs    int
	// change is the relative change of the median, positive when better.
	change  float64
	verdict string
}

// judge applies the pairing rule: a win needs the change to be better in at
// least nine tenths of the pairs (ties count for neither) and a median gain
// larger than the base runs' interquartile range. Without a win, a metric
// whose spread (interquartile range over median, on either side) exceeds its
// bound is unresolved, unless every change run beats every base run; one
// whose median got worse by more than the bound regressed.
func judge(base, change []float64, better string, bound *float64) judgement {
	n := min(len(base), len(change))
	base, change = base[:n], change[:n]
	sign := 1.0 // +1: higher is better
	if better == "lower" {
		sign = -1
	}
	j := judgement{pairs: n}
	for i := range base {
		if sign*(change[i]-base[i]) > 0 {
			j.wins++
		}
	}
	j.baseQ[0], j.baseQ[1], j.baseQ[2] = quartiles(base)
	j.changeQ[0], j.changeQ[1], j.changeQ[2] = quartiles(change)
	gain := sign * (j.changeQ[1] - j.baseQ[1])
	if j.baseQ[1] != 0 {
		j.change = gain / math.Abs(j.baseQ[1])
	}
	switch {
	case 10*j.wins >= 9*n && gain > j.baseQ[2]-j.baseQ[0]:
		j.verdict = verdictWin
	case bound == nil:
		j.verdict = verdictNoClaim
	case math.Max(spread(j.baseQ), spread(j.changeQ)) > *bound && !allBetter(base, change, sign):
		j.verdict = verdictUnresolved
	case -gain > *bound*math.Abs(j.baseQ[1]):
		j.verdict = verdictRegression
	default:
		j.verdict = verdictUnchanged
	}
	return j
}

// spread is the interquartile range as a share of the median.
func spread(q [3]float64) float64 {
	if q[1] == 0 {
		if q[2] == q[0] {
			return 0
		}
		return math.Inf(1)
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// allBetter reports whether every change run beats every base run.
func allBetter(base, change []float64, sign float64) bool {
	worstChange, bestBase := math.Inf(1), math.Inf(-1)
	for _, x := range change {
		worstChange = math.Min(worstChange, sign*x)
	}
	for _, x := range base {
		bestBase = math.Max(bestBase, sign*x)
	}
	return worstChange > bestBase
}

// compareFiles compares the runs of a base commit and a change, paired by
// line, and writes one row per metric. It reports whether any metric
// regressed or the change failed more operations.
func compareFiles(specPath, basePath, changePath string, w io.Writer) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	change, err := readResults(changePath)
	if err != nil {
		return false, err
	}
	return compare(spec, base, change, w)
}

func compare(spec benchSpec, base, change []result, w io.Writer) (bool, error) {
	n := min(len(base), len(change))
	if n < minPairs {
		return false, fmt.Errorf("compare: %d run pairs, need at least %d alternating pairs", n, minPairs)
	}
	base, change = base[:n], change[:n]

	t := stats.NewTable(fmt.Sprintf("%d run pairs", n),
		"metric", "unit", "base median [q1, q3]", "change median [q1, q3]", "change", "wins", "bound", "verdict")
	regressed := false
	rows := 0
	for _, m := range append(append([]specMetric{}, spec.EndToEnd...), spec.PerLayer...) {
		bs, cs, ok := samples(m.Name, base, change)
		if !ok {
			continue
		}
		j := judge(bs, cs, m.Better, m.Bound)
		bound := "-"
		if m.Bound != nil {
			bound = fmt.Sprintf("%.0f%%", 100**m.Bound)
		}
		t.AddRow(m.Name, m.Unit, quartileCell(j.baseQ), quartileCell(j.changeQ),
			fmt.Sprintf("%+.1f%%", 100*j.change), fmt.Sprintf("%d/%d", j.wins, j.pairs), bound, j.verdict)
		regressed = regressed || j.verdict == verdictRegression
		rows++
	}
	if rows == 0 {
		return false, fmt.Errorf("compare: the files share no metric of the benchmark")
	}
	fmt.Fprintln(w, t.Render())

	tally := func(rs []result) (failed, attempted, incorrect int) {
		for _, r := range rs {
			failed += r.Failed
			attempted += r.Attempted
			if !r.Correct {
				incorrect++
			}
		}
		return
	}
	bf, ba, bi := tally(base)
	cf, ca, ci := tally(change)
	fmt.Fprintf(w, "failed operations: base %d of %d (%d incorrect runs), change %d of %d (%d incorrect runs)\n", bf, ba, bi, cf, ca, ci)
	if cf > bf || ci > bi {
		fmt.Fprintln(w, "the change failed more operations than the base: no gain counts")
		regressed = true
	}
	return regressed, nil
}

// samples collects a metric's values from paired runs; ok is false unless
// every run of both sides reports it.
func samples(name string, base, change []result) (bs, cs []float64, ok bool) {
	for i := range base {
		b, okB := base[i].Metrics[name]
		c, okC := change[i].Metrics[name]
		if !okB || !okC {
			return nil, nil, false
		}
		bs = append(bs, b.Value)
		cs = append(cs, c.Value)
	}
	return bs, cs, true
}

func quartileCell(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}
