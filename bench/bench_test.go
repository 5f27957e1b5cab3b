package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"scale/internal/enb"
	"scale/internal/nas"
	"scale/internal/s1ap"
)

func TestQuantileNearestRank(t *testing.T) {
	v := make([]int64, 100)
	for i := range v {
		v[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := quantile(v, tc.q); got != tc.want {
			t.Errorf("quantile(1..100, %v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %d, want 0", got)
	}
}

// A tail is reported only with at least ten samples beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{199, 0.95, false}, {200, 0.95, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{9999, 0.999, false}, {10000, 0.999, true},
		{20, 0.5, true}, {19, 0.5, false},
	} {
		if got := tailSupported(tc.n, tc.q); got != tc.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
	small := make([]int64, 500)
	if got := tailUS(small, 0.99); got != 0 {
		t.Errorf("p99 of 500 samples reported as %v, want 0 (unsupported)", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// is what the spread of repeated runs is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{10, 12, 11, 15, 14, 13, 19, 18, 16, 17}
	q1, q3 := quartiles(v)
	if q1 != 11.75 || q3 != 17.25 { // statistics.quantiles(range(10, 20), n=4)
		t.Errorf("quartiles = %v, %v, want 11.75, 17.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 { // statistics.quantiles([1, 2], n=4)
		t.Errorf("quartiles of two = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if got := spread(v); got < 0.379 || got > 0.380 { // 5.5 / 14.5
		t.Errorf("spread = %v, want 0.3793", got)
	}
}

// A phase's headline number is the good-side quartile over its slices.
func TestPhaseQuartileTakesTheGoodSide(t *testing.T) {
	var ps phaseStats
	for us := 10; us < 20; us++ {
		ps.Slices = append(ps.Slices, sliceStats{P50US: float64(us), Completed: us, Seconds: 1})
	}
	if got := ps.quartile(func(s *sliceStats) float64 { return s.P50US }, false); got != 11.75 {
		t.Errorf("lower is better: %v, want the first quartile 11.75", got)
	}
	if got := ps.quartile(sliceRate, true); got != 17.25 {
		t.Errorf("higher is better: %v, want the third quartile 17.25", got)
	}
	ps.Slices = ps.Slices[:2] // quartiles extrapolate here; the result may not
	if got := ps.quartile(sliceRate, true); got != 11 {
		t.Errorf("two slices: %v, want the better one, 11", got)
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},   // root
		{ID: 1, Parent: 0, Start: 10, End: 40},    // child
		{ID: 2, Parent: 1, Start: 15, End: 25},    // grandchild: not the root's concern
		{ID: 3, Parent: 0, Start: 30, End: 60},    // overlaps child 1 by 10
		{ID: 4, Parent: 0, Start: 90, End: 120},   // sticks out of the root by 20
		{ID: 5, Parent: 0, Start: 50, End: 55},    // inside child 3
		{ID: 6, Parent: -1, Start: 200, End: 230}, // second root, no children
	}
	want := []int64{
		100 - (50 + 10), // children cover [10,60) and [90,100)
		30 - 10,
		10,
		30,
		30,
		5,
		30,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderParentsAndLayers(t *testing.T) {
	r := newRecorder()
	if id := r.begin("ignored"); id != -1 || len(r.spans) != 0 {
		t.Fatalf("a recorder that is off recorded a span")
	}
	r.end(-1)
	r.on = true
	r.op = 7
	root := r.begin("op")
	a := r.begin("mmp.handle")
	b := r.begin("s6a.auth_info")
	r.end(b)
	r.end(a)
	c := r.begin("transport.hop")
	r.end(c)
	r.end(root)
	parents := []int32{-1, root, a, root}
	for i, s := range r.spans {
		if s.Parent != parents[i] || s.Op != 7 || s.End < s.Start {
			t.Errorf("span %d = %+v, want parent %d op 7", i, s, parents[i])
		}
	}
	if l := layerOf("s6a.auth_info"); l != "s6a" {
		t.Errorf("layerOf = %q", l)
	}
	calls := callsPerOp(r.spans)
	if calls["s6a"] != 1 || calls["transport.hop"] != 1 || calls["mmp.handle"] != 1 {
		t.Errorf("callsPerOp = %v", calls)
	}
}

func TestScheduleFollowsSeed(t *testing.T) {
	w, err := workloadByName("mixed")
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed int64) []arrival {
		a, err := newSchedule(w, seed).poisson(2000, 500*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a, b, c := draw(1), draw(1), draw(2)
	if len(a) < 500 || !reflect.DeepEqual(a, b) {
		t.Errorf("equal seeds gave different schedules (%d and %d arrivals)", len(a), len(b))
	}
	if reflect.DeepEqual(a, c) {
		t.Errorf("different seeds gave the same schedule")
	}
	fresh := int32(w.standing)
	for i, x := range a {
		if i > 0 && x.at < a[i-1].at {
			t.Fatalf("arrival %d is out of order", i)
		}
		if x.kind == opAttach {
			if x.dev != fresh {
				t.Fatalf("attach %d targets device %d, want the next fresh one %d", i, x.dev, fresh)
			}
			fresh++
		} else if int(x.dev) >= w.standing {
			t.Fatalf("arrival %d (%s) targets device %d outside the standing population", i, x.kind, x.dev)
		}
	}
	if fresh == int32(w.standing) {
		t.Errorf("the mixed schedule drew no attach")
	}
	// Successive draws from one schedule differ (each phase gets its own).
	s := newSchedule(w, 1)
	first, _ := s.poisson(2000, 100*time.Millisecond)
	second, _ := s.poisson(2000, 100*time.Millisecond)
	if reflect.DeepEqual(first, second) {
		t.Errorf("two phases of one schedule are identical")
	}
}

// testConn is a driver with one S1 connection whose uplinks are captured
// instead of written to a socket.
func testConn() (*driver, *s1conn, *[]s1ap.Message) {
	d := &driver{devs: make([]*device, 4), tokens: make(chan struct{}, inFlight)}
	c := &s1conn{drv: d, cell: 1, emu: enb.New(), byUEID: map[uint32]*device{}}
	c.emu.AddCell(1, []uint16{1})
	sent := &[]s1ap.Message{}
	c.emu.Uplink = func(_ uint32, m s1ap.Message) { *sent = append(*sent, m) }
	d.conns = []*s1conn{c}
	d.beginPhase(time.Now().Add(-time.Hour), 24*time.Hour, 1)
	return d, c, sent
}

// Arrivals for a busy device wait in its FIFO, run in order once it is
// free, and stay timed from their own due times.
func TestPerDeviceFIFO(t *testing.T) {
	d, c, sent := testConn()
	dev := d.device(2)
	dev.ue.State = enb.Idle
	t0 := time.Now().Add(-time.Second)
	dues := []time.Time{t0, t0.Add(100 * time.Millisecond), t0.Add(200 * time.Millisecond)}
	d.submit(arrival{dev: 2, kind: opTAU}, dues[0])
	d.submit(arrival{dev: 2, kind: opService}, dues[1])
	d.submit(arrival{dev: 2, kind: opTAU}, dues[2])
	if len(*sent) != 1 || len(dev.queue) != 2 || d.outstanding.Load() != 3 {
		t.Fatalf("after three submits: %d uplinks, %d queued, %d outstanding; want 1, 2, 3",
			len(*sent), len(dev.queue), d.outstanding.Load())
	}
	deliver := func(msg s1ap.Message) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.emu.HandleDownlink(1, msg)
		c.advance(dev, msg)
	}
	accept := func() s1ap.Message {
		return &s1ap.DownlinkNASTransport{ENBUEID: dev.enbUEID, NASPDU: nas.Marshal(&nas.TAUAccept{GUTI: dev.ue.GUTI})}
	}

	deliver(accept()) // completes the first TAU; the service request starts
	if dev.kind != opService || !dev.due.Equal(dues[1]) || len(dev.queue) != 1 || len(*sent) != 2 {
		t.Fatalf("after the first completion: %s due %v, %d queued, %d uplinks", dev.kind, dev.due, len(dev.queue), len(*sent))
	}
	// Drive the service request: bearer set-up, accept, then the release
	// the driver asks for, then the release command.
	id := dev.enbUEID
	deliver(&s1ap.InitialContextSetupRequest{ENBUEID: id, MMEUEID: 9})
	deliver(&s1ap.DownlinkNASTransport{ENBUEID: id, MMEUEID: 9, NASPDU: nas.Marshal(&nas.ServiceAccept{EBI: 5})})
	if dev.timed || dev.ue.State != enb.Active {
		t.Fatalf("service request not through its timed part: timed %v, UE %s", dev.timed, dev.ue.State)
	}
	if rel, ok := (*sent)[len(*sent)-1].(*s1ap.UEContextReleaseRequest); !ok || rel.MMEUEID != 9 {
		t.Fatalf("the driver did not follow Active with a release request: %T", (*sent)[len(*sent)-1])
	}
	deliver(&s1ap.UEContextReleaseCommand{ENBUEID: id, MMEUEID: 9})
	if dev.kind != opTAU || !dev.due.Equal(dues[2]) || len(dev.queue) != 0 {
		t.Fatalf("after the second completion: %s due %v, %d queued", dev.kind, dev.due, len(dev.queue))
	}
	deliver(accept())
	if dev.busy || d.outstanding.Load() != 0 || c.ok != 3 || c.failed != 0 {
		t.Fatalf("at the end: busy %v, %d outstanding, %d ok, %d failed", dev.busy, d.outstanding.Load(), c.ok, c.failed)
	}
	// Each latency counts from the operation's own due time, so the three
	// (due 1000, 900 and 800 ms ago) come out in decreasing order.
	lat := c.lat[0]
	if len(lat) != 3 || !(lat[0] > lat[1] && lat[1] > lat[2]) || lat[2] < int64(800*time.Millisecond) {
		t.Errorf("latencies %v are not timed from the due times", lat)
	}
	if dev.bad != "" || len(c.byUEID) != 0 {
		t.Errorf("bad = %q, %d ids still mapped", dev.bad, len(c.byUEID))
	}
}

// A detached device can only attach, whatever the schedule drew.
func TestDetachedDeviceAttaches(t *testing.T) {
	d, _, sent := testConn()
	d.submit(arrival{dev: 1, kind: opService}, time.Now())
	dev := d.devs[1]
	if dev.kind != opAttach || dev.ue.State != enb.Attaching || len(*sent) != 1 {
		t.Fatalf("%s, UE %s, %d uplinks; want an attach in flight", dev.kind, dev.ue.State, len(*sent))
	}
}

func TestVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 100}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		higher bool
		bound  float64
		want   string
	}{
		{"same", steady, steady, false, 0.05, verdictOK},
		{"latency up 20%", steady, []float64{120, 121, 119, 120}, false, 0.10, verdictWorse},
		{"latency down 20%", steady, []float64{80, 81, 79, 80}, false, 0.10, verdictOK},
		{"throughput down 20%", steady, []float64{80, 81, 79, 80}, true, 0.05, verdictWorse},
		{"throughput up 20%", steady, []float64{120, 121, 119, 120}, true, 0.05, verdictOK},
		{"worse but inside the bound", steady, []float64{104, 105, 103, 104}, false, 0.10, verdictOK},
		{"B too noisy to tell", steady, []float64{80, 140, 100, 160, 90, 150}, false, 0.10, verdictUnresolved},
		{"A too noisy to tell", []float64{80, 140, 100, 160, 90, 150}, steady, false, 0.10, verdictUnresolved},
		{"no valid run", steady, nil, false, 0.10, verdictUnresolved},
		{"single runs", []float64{100}, []float64{130}, false, 0.10, verdictWorse},
	} {
		if got, _ := verdict(tc.a, tc.b, tc.higher, tc.bound); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v interface{}) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	spec := write("spec.json", map[string]interface{}{"end_to_end": []map[string]interface{}{
		{"name": "cap_per_s", "unit": "ops/s", "better": "higher", "bound": 0.05},
		{"name": "hi_p95_us", "unit": "us", "better": "lower", "bound": 0.10},
	}})
	runsOf := func(caps, p95s []float64, failed int) *resultFile {
		f := &resultFile{Meta: meta{Commit: "canned"}}
		for i := range caps {
			f.Runs = append(f.Runs, &runResult{
				Workload: "tau_sweep", Seed: int64(i), Valid: true, Correct: true,
				Attempted: 1000, Failed: failed,
				EndToEnd: map[string]float64{"cap_per_s": caps[i], "hi_p95_us": p95s[i]},
			})
		}
		// An invalid run and a traced one, both far off, must be ignored.
		f.Runs = append(f.Runs,
			&runResult{Workload: "tau_sweep", Valid: false, Attempted: 1, EndToEnd: map[string]float64{"cap_per_s": 1, "hi_p95_us": 1e9}},
			&runResult{Workload: "tau_sweep", Valid: true, Traced: true, Attempted: 1, EndToEnd: map[string]float64{"cap_per_s": 1, "hi_p95_us": 1e9}})
		return f
	}
	base := write("a.json", runsOf([]float64{1000, 1010, 990, 1000}, []float64{500, 505, 495, 500}, 0))
	same := write("b.json", runsOf([]float64{1005, 1000, 995, 1000}, []float64{510, 505, 500, 505}, 0))
	slow := write("c.json", runsOf([]float64{900, 905, 895, 900}, []float64{500, 505, 495, 500}, 0))
	lossy := write("d.json", runsOf([]float64{1000, 1010, 990, 1000}, []float64{500, 505, 495, 500}, 5))

	var out bytes.Buffer
	worse, err := compareFiles(&out, spec, base, same)
	if err != nil || worse {
		t.Fatalf("same against base: worse %v, err %v\n%s", worse, err, out.String())
	}
	if n := strings.Count(out.String(), " ok\n"); n != 3 {
		t.Errorf("want three ok rows (two metrics and fail_share), got %d:\n%s", n, out.String())
	}
	out.Reset()
	if worse, err = compareFiles(&out, spec, base, slow); err != nil || !worse {
		t.Fatalf("slow against base: worse %v, err %v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "cap_per_s") || strings.Count(out.String(), " worse\n") != 1 {
		t.Errorf("want exactly the cap_per_s row worse:\n%s", out.String())
	}
	out.Reset()
	if worse, err = compareFiles(&out, spec, base, lossy); err != nil || !worse {
		t.Fatalf("lossy against base: worse %v, err %v\n%s", worse, err, out.String())
	}
	if _, err = compareFiles(&out, spec, base, filepath.Join(dir, "missing.json")); err == nil {
		t.Errorf("a missing result file did not fail the comparison")
	}
}

// BENCHMARK.json at the repository root and the tables in this package
// name the same workloads and metrics, with the same units.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) || spec.RunSeconds != defaultSeconds {
		t.Errorf("paths %v, run_seconds %v; want [bench], %d", spec.Paths, spec.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range gated() {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want the gated set %v", names, want)
	}
	var e2e, layers []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", layers, perLayer)
	}
}
