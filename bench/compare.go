package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs: each
// end-to-end metric's direction and the share of the baseline's median
// by which it may worsen.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// failShareBound is the absolute rise in failed/attempted that counts as
// worse; fail_share is 0 on a healthy cluster, so it has no relative
// bound and is not an end-to-end metric of BENCHMARK.json.
const failShareBound = 0.001

// Verdicts of one workload × metric cell.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges B against A for one metric: unresolved when either
// side's own run-to-run spread exceeds the bound (or a side has no valid
// run), worse when B's median is worse than A's by more than the bound.
func verdict(a, b []float64, higherIsBetter bool, bound float64) (string, float64) {
	if len(a) == 0 || len(b) == 0 {
		return verdictUnresolved, 0
	}
	ma, mb := medianF(a), medianF(b)
	if ma == 0 {
		return verdictUnresolved, 0
	}
	worseBy := (mb - ma) / ma
	if higherIsBetter {
		worseBy = -worseBy
	}
	switch {
	case spread(a) > bound || spread(b) > bound:
		return verdictUnresolved, worseBy
	case worseBy > bound:
		return verdictWorse, worseBy
	}
	return verdictOK, worseBy
}

// compareFiles prints one row per workload × end-to-end metric of two
// sides and reports whether any cell is worse. A side is one result file
// or several joined by commas, as interleaved A/B runs leave behind.
func compareFiles(w io.Writer, specPath, aPath, bPath string) (bool, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readResultFiles(aPath)
	if err != nil {
		return false, err
	}
	b, err := readResultFiles(bPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s (%s)\nB: %s (%s)\n", aPath, a.Meta.Commit, bPath, b.Meta.Commit)
	fmt.Fprintf(w, "%-13s %-21s %13s %13s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "A median", "B median", "worse by", "A spread", "B spread", "bound", "verdict")
	anyWorse := false
	for _, wl := range workloads {
		ra, rb := a.validRuns(wl.name), b.validRuns(wl.name)
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := column(ra, m.Name), column(rb, m.Name)
			v, worseBy := verdict(va, vb, m.Better == "higher", m.Bound)
			anyWorse = anyWorse || v == verdictWorse
			fmt.Fprintf(w, "%-13s %-21s %13.3f %13.3f %+7.1f%% %7.1f%% %7.1f%% %5.1f%%  %s\n",
				wl.name, m.Name, medianF(va), medianF(vb), 100*worseBy, 100*spread(va), 100*spread(vb), 100*m.Bound, v)
		}
		fa, fb := failShare(ra), failShare(rb)
		v := verdictOK
		switch {
		case len(ra) == 0 || len(rb) == 0:
			v = verdictUnresolved
		case fb-fa > failShareBound:
			v, anyWorse = verdictWorse, true
		}
		fmt.Fprintf(w, "%-13s %-21s %13.5f %13.5f %+8.5f %8s %8s %6.3f  %s\n",
			wl.name, "fail_share", fa, fb, fb-fa, "", "", failShareBound, v)
	}
	return anyWorse, nil
}

// validRuns returns the file's untraced, valid runs of one workload:
// end-to-end metrics come from untraced runs only, and an invalid run's
// numbers are not to be compared.
func (f *resultFile) validRuns(workload string) []*runResult {
	var out []*runResult
	for _, r := range f.Runs {
		if r.Workload == workload && r.Valid && !r.Traced {
			out = append(out, r)
		}
	}
	return out
}

func column(runs []*runResult, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.EndToEnd[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

func failShare(runs []*runResult) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
