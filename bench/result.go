package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// resultFile is what a bench invocation leaves behind and what -compare
// reads: the run metadata and every run's numbers.
type resultFile struct {
	Meta meta         `json:"meta"`
	Runs []*runResult `json:"runs"`
}

// meta identifies the code and the machine a result came from.
type meta struct {
	Commit        string `json:"commit"`
	GoVersion     string `json:"go_version"`
	NumCPU        int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	S1Connections int    `json:"s1_connections"`
	Started       string `json:"started"`
}

func newMeta() meta {
	return meta{
		Commit:        commit(),
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		S1Connections: s1Connections(),
		Started:       time.Now().UTC().Format(time.RFC3339),
	}
}

// commit is the VCS revision stamped into the binary, or git's answer
// for the working directory (go run does not stamp), or "unknown".
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func (f *resultFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// readResultFiles reads one result file, or several joined by commas
// into one: the first file's metadata with every file's runs.
func readResultFiles(paths string) (*resultFile, error) {
	var all *resultFile
	for _, path := range strings.Split(paths, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if all == nil {
			all = &f
		} else {
			all.Runs = append(all.Runs, f.Runs...)
		}
	}
	return all, nil
}

// print writes every metric of the run by name and unit.
func (r *runResult) print(w io.Writer) {
	status := "ok"
	switch {
	case !r.Correct:
		status = "INCORRECT"
	case !r.Valid:
		status = "INVALID"
	}
	fmt.Fprintf(w, "== %s seed %d (%.0f s measured): %s, %d attempted, %d failed\n",
		r.Workload, r.Seed, r.Seconds, status, r.Attempted, r.Failed)
	for _, ph := range r.Phases {
		fmt.Fprintf(w, "   phase %-5s %6.2f s  attempted %7d  succeeded %7d  failed %d  timed out %d  backlog %d  generator late p99 %.0f us max %.0f us\n",
			ph.Name, ph.Seconds, ph.Attempted, ph.Succeeded, ph.Failed, ph.TimedOut, ph.Backlog, ph.GenLateP99, ph.GenLateMax)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "   %-30s %14.3f %s\n", m.name, r.EndToEnd[m.name], m.unit)
	}
	for _, m := range perLayer {
		if v, ok := r.PerLayer[m.name]; ok {
			fmt.Fprintf(w, "   %-30s %14.3f %s\n", m.name, v, m.unit)
		}
	}
}

// contractLine is the one-line machine-readable result: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func (r *runResult) contractLine() map[string]interface{} {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, values := endToEnd, r.EndToEnd
	if r.Traced {
		defs, values = perLayer, r.PerLayer
	}
	metrics := map[string]value{}
	for _, m := range defs {
		metrics[m.name] = value{values[m.name], m.unit}
	}
	return map[string]interface{}{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	}
}
