package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"scale/internal/enb"
	"scale/internal/mmp"
	"scale/internal/transport"
)

// A run spends its --seconds on three measured phases in these shares;
// the remainder absorbs the drains between them.
const (
	capShare = 0.20
	hiShare  = 0.65
	loShare  = 0.10
	// defaultSeconds gives cap 4 s, hi 13 s, so the slowest workload
	// (attach_storm at 2000/s) takes 26 000 samples, and lo 2 s.
	defaultSeconds = 20
	// setupRuns is how many times a run boots and populates the cluster;
	// setup_s is the median, and the last one is kept for the phases.
	setupRuns = 3
	// backlogLimit fails a run whose hi schedule ends with more than this
	// many operations outstanding: the offered rate was not sustained.
	backlogLimit = 64
	// lateLimitUS invalidates a run whose generator ran this late (p99).
	lateLimitUS = 1000
)

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Traced   bool               `json:"traced"`
	Valid    bool               `json:"valid"`
	Invalid  []string           `json:"invalid,omitempty"`
	Correct  bool               `json:"correct"`
	Errors   []string           `json:"errors,omitempty"`
	Phases   []phaseStats       `json:"phases"`
	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer"`

	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// counters is a snapshot of every live counter the per-layer metrics are
// diffed from, read from outside through public getters.
type counters struct {
	at      time.Time
	cpu     time.Duration
	wire    transport.WireStats
	mem     runtime.MemStats
	busyNS  []int64
	handled []uint64
	stats   []mmp.Stats
	rejects uint64
	vectors uint64
}

func snapshot(c *cluster) counters {
	s := counters{at: time.Now(), cpu: cpuTime(), wire: transport.Stats(), vectors: c.db.VectorsIssued()}
	for _, a := range c.agents {
		s.busyNS = append(s.busyNS, a.Engine.BusyNS())
		s.handled = append(s.handled, a.Engine.Handled())
		s.stats = append(s.stats, a.Engine.Stats())
		_, rej := a.QueueStats()
		s.rejects += rej
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// testbed is a booted, populated cluster with its driver.
type testbed struct {
	c      *cluster
	d      *driver
	sch    *schedule
	booted time.Time
	// setupS is boot plus population build; heapKBPerUE what the standing
	// population added to the heap, per device.
	setupS      float64
	heapKBPerUE float64
	setup       phaseStats
}

func (tb *testbed) close() {
	tb.d.close()
	tb.c.close()
}

// liveHeap is the bytes of reachable heap objects after a forced
// collection. HeapInuse, which also counts the unused part of every
// partly filled span, swung 10 % between runs at 4 000 devices.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setUp boots the cluster and builds the standing population closed-loop,
// as fast as it goes.
func setUp(w workload, seed int64, withObs bool) (*testbed, error) {
	t0 := time.Now()
	c, err := bootCluster(w.mmps, withObs)
	if err != nil {
		return nil, err
	}
	d, err := newDriver(c.mlb.ENBAddr())
	if err != nil {
		c.close()
		return nil, err
	}
	boot := time.Since(t0)
	base := liveHeap() // not part of setup_s
	tb := &testbed{c: c, d: d, sch: newSchedule(w, seed), booted: t0}
	tb.setup = d.runClosed("setup", tb.sch.setupArrivals(), 0)
	tb.setupS = boot.Seconds() + tb.setup.Seconds
	tb.heapKBPerUE = (float64(liveHeap()) - float64(base)) / 1024 / float64(w.standing)
	return tb, nil
}

// runWorkload performs one complete run: set-up (several times), the
// closed-loop capacity phase, the two open-loop phases, the output
// self-check and, when traced, the serial ladder replay.
func runWorkload(w workload, seed int64, seconds float64, traced bool, outDir string) (*runResult, error) {
	res := &runResult{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced,
		Valid: true, Correct: true,
		EndToEnd: map[string]float64{}, PerLayer: map[string]float64{},
	}
	span := func(share float64) time.Duration {
		return time.Duration(share * seconds * float64(time.Second))
	}

	// Set-up, repeated so setup_s is a median; a traced run reports no
	// end-to-end metric and sets up once.
	n := setupRuns
	if traced {
		n = 1
	}
	var tb *testbed
	var setups []float64
	for i := 0; i < n; i++ {
		if tb != nil {
			tb.close()
		}
		var err error
		if tb, err = setUp(w, seed, false); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, tb.setupS)
		if tb.setup.Failed+tb.setup.TimedOut > 0 {
			break // the phases below would only repeat the failure
		}
	}
	defer func() { tb.close() }()
	res.Phases = append(res.Phases, tb.setup)
	res.EndToEnd["setup_s"] = medianF(setups)
	res.EndToEnd["heap_kb_per_ue"] = tb.heapKBPerUE

	// The MLB routes by ring position alone until the agents' first load
	// reports arrive and by least load from then on, which moves where
	// attaches land. Measure the lasting regime, not the first seconds.
	time.Sleep(time.Until(tb.booted.Add(loadReport + 200*time.Millisecond)))
	capPh := tb.d.runClosed("cap", tb.sch.stream(), span(capShare))
	res.Phases = append(res.Phases, capPh)
	res.EndToEnd["cap_per_s"] = capPh.quartile(sliceRate, true)

	// hi follows cap directly, and lo follows hi directly and is short.
	// For some seconds after the offered load drops (about 3 on tau_sweep,
	// 4 to 8 or more on the others) the box answers every operation some
	// 50 µs slower, at a third more CPU, than once it has settled; when it
	// settles is not ours to choose, so lo ends before it can and always
	// measures the first of the two states.
	hiArr, err := tb.sch.poisson(w.hiRate, span(hiShare))
	if err != nil {
		return nil, err
	}
	before := snapshot(tb.c)
	hi := tb.d.runOpen("hi", hiArr, span(hiShare))
	after := snapshot(tb.c)
	res.Phases = append(res.Phases, hi)

	loArr, err := tb.sch.poisson(w.loRate, span(loShare))
	if err != nil {
		return nil, err
	}
	lo := tb.d.runOpen("lo", loArr, span(loShare))
	res.Phases = append(res.Phases, lo)

	for _, ph := range []phaseStats{lo, hi} {
		res.EndToEnd[ph.Name+"_p50_us"] = ph.quartile(func(s *sliceStats) float64 { return s.P50US }, false)
		res.EndToEnd[ph.Name+"_p95_us"] = ph.quartile(func(s *sliceStats) float64 { return s.P95US }, false)
		if ph.GenLateP99 > lateLimitUS {
			res.invalid("%s: generator p99 lateness %.0f µs exceeds %d µs", ph.Name, ph.GenLateP99, lateLimitUS)
		}
	}
	if hi.Backlog > backlogLimit {
		res.invalid("backlog: %d operations outstanding at the end of the median hi slice", hi.Backlog)
		res.Correct = false
	}
	liveMetrics(res, tb, before, after, lo, hi)
	for _, ph := range res.Phases {
		res.Attempted += ph.Attempted
		res.Failed += ph.Failed + ph.TimedOut
	}
	res.PerLayer["live.fail_share"] = float64(res.Failed) / float64(res.Attempted)

	selfCheck(res, tb)
	res.Errors = append(res.Errors, tb.d.errs...)
	if tb.d.errSeen > len(tb.d.errs) {
		res.Errors = append(res.Errors, fmt.Sprintf("... and %d more", tb.d.errSeen-len(tb.d.errs)))
	}
	if tb.sch.err != nil {
		return nil, tb.sch.err
	}

	if traced {
		if err := ladder(res, w, seed, outDir); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		res.PerLayer["live.residual_us"] = res.EndToEnd["lo_p50_us"] - res.PerLayer["ladder.total_us"]
		res.PerLayer["obs.cap_ratio"] = 0 // measured on idle_active only
		if w.name == "idle_active" {
			ratio, err := obsCapRatio(w, seed, span(capShare))
			if err != nil {
				return nil, fmt.Errorf("obs phase: %w", err)
			}
			res.PerLayer["obs.cap_ratio"] = ratio
		}
	}
	return res, nil
}

// sliceRate is a slice's completed operations per second.
func sliceRate(s *sliceStats) float64 { return float64(s.Completed) / s.Seconds }

func (r *runResult) invalid(format string, args ...interface{}) {
	r.Valid = false
	msg := fmt.Sprintf(format, args...)
	r.Invalid = append(r.Invalid, msg)
	fmt.Fprintf(os.Stderr, "bench: %s seed %d INVALID: %s\n", r.Workload, r.Seed, msg)
}

func (r *runResult) incorrect(format string, args ...interface{}) {
	r.Correct = false
	msg := fmt.Sprintf(format, args...)
	r.Errors = append(r.Errors, msg)
}

// liveMetrics fills the metrics diffed over the hi phase.
func liveMetrics(res *runResult, tb *testbed, before, after counters, lo, hi phaseStats) {
	ops := float64(hi.Succeeded)
	if ops == 0 {
		ops = 1
	}
	wall := after.at.Sub(before.at)
	e, p := res.EndToEnd, res.PerLayer

	e["cpu_us_per_proc"] = hi.quartile(func(s *sliceStats) float64 { return s.CPUUS }, false)
	e["allocs_per_proc"] = float64(after.mem.Mallocs-before.mem.Mallocs) / ops
	e["alloc_bytes_per_proc"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / ops

	frames := float64(after.wire.FramesOut - before.wire.FramesOut)
	p["transport.frames_per_proc"] = frames / ops
	p["transport.bytes_per_proc"] = float64(after.wire.BytesOut-before.wire.BytesOut) / ops
	p["transport.flushes_per_frame"] = float64(after.wire.FlushesOut-before.wire.FlushesOut) / frames

	var busy, msgs, noCtx, attaches float64
	var occMax float64
	for i := range tb.c.agents {
		b := float64(after.busyNS[i] - before.busyNS[i])
		busy += b
		msgs += float64(after.handled[i] - before.handled[i])
		noCtx += float64(after.stats[i].UnknownContext - before.stats[i].UnknownContext)
		attaches += float64(after.stats[i].Attaches - before.stats[i].Attaches)
		if occ := b / float64(wall.Nanoseconds()); occ > occMax {
			occMax = occ
		}
	}
	p["mmp.busy_us_per_msg"] = busy / 1e3 / msgs
	p["mmp.msgs_per_proc"] = msgs / ops
	p["mmp.occupancy_max"] = occMax
	p["mmp.no_context_per_kproc"] = noCtx / ops * 1000

	peak := 0
	for _, a := range tb.c.agents {
		if q, _ := a.QueueStats(); q > peak {
			peak = q
		}
	}
	p["core.agent_queue_peak"] = float64(peak) // high-water mark since boot
	p["core.agent_queue_rejects"] = float64(after.rejects - before.rejects)

	p["hss.vectors_per_attach"] = 0
	if attaches > 0 {
		p["hss.vectors_per_attach"] = float64(after.vectors-before.vectors) / attaches
	}
	p["runtime.gc_pause_ms_per_s"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6 / wall.Seconds()
	p["runtime.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)

	p["enb.gen_late_p99_us"] = hi.GenLateP99
	p["enb.gen_late_max_us"] = hi.GenLateMax
	p["live.lo_p99_us"] = tailUS(lo.lat, 0.99)
	p["live.hi_p99_us"] = tailUS(hi.lat, 0.99)
	p["live.hi_p999_us"] = tailUS(hi.lat, 0.999)
	p["live.samples"] = float64(len(hi.lat))
}

// selfCheck asserts, after the last drain, that the cluster's state
// agrees with what the driver did to it. Any miss makes the run
// incorrect and names the IMSI where there is one.
func selfCheck(res *runResult, tb *testbed) {
	if n := tb.d.outstanding.Load(); n != 0 {
		res.incorrect("%d operations still outstanding after the drain", n)
	}
	mmps := map[string]bool{}
	for _, a := range tb.c.agents {
		mmps[a.Engine.ID()] = true
	}
	attached := 0
	for _, dev := range tb.d.devs {
		if dev == nil {
			continue
		}
		c := dev.conn
		c.mu.Lock()
		state, busy, queued, bad := dev.ue.State, dev.busy, len(dev.queue), dev.bad
		c.mu.Unlock()
		if busy || queued > 0 {
			res.incorrect("imsi %d: still busy (%d queued) after the drain", dev.imsi, queued)
		}
		if bad != "" {
			res.incorrect("imsi %d: %s", dev.imsi, bad)
		}
		mme, registered := tb.c.db.ServingMME(dev.imsi)
		switch state {
		case enb.Idle:
			attached++
			if !registered || !mmps[mme] {
				res.incorrect("imsi %d: attached, but the HSS records serving MME %q", dev.imsi, mme)
			}
		case enb.Detached:
			if registered {
				res.incorrect("imsi %d: detached, but the HSS still records serving MME %q", dev.imsi, mme)
			}
		default:
			res.incorrect("imsi %d: left %s", dev.imsi, state)
		}
	}
	masters, contexts := 0, 0
	minM, maxM := -1, 0
	for _, a := range tb.c.agents {
		m := a.Engine.Store().MasterCount()
		masters += m
		contexts += a.Engine.Store().Len()
		if minM < 0 || m < minM {
			minM = m
		}
		if m > maxM {
			maxM = m
		}
	}
	if masters != attached {
		res.incorrect("%d master contexts for %d attached devices", masters, attached)
	}
	if contexts != 2*attached {
		res.incorrect("%d contexts for %d attached devices, want 2 each (R=2)", contexts, attached)
	}
	if s := tb.c.gw.Len(); s != attached {
		res.incorrect("%d S-GW sessions for %d attached devices", s, attached)
	}
	if attached == 0 {
		res.incorrect("no device attached")
		return
	}
	res.PerLayer["state.ctx_per_ue"] = float64(contexts) / float64(attached)
	res.PerLayer["sgw.sessions_per_ue"] = float64(tb.c.gw.Len()) / float64(attached)
	res.PerLayer["mlb.balance_max_over_min"] = float64(maxM) / float64(max(minM, 1))
}

// obsCapRatio boots a 5000-device idle_active cluster twice, with and
// without an obs.Observer on the MLB and the agents, and returns the
// closed-loop capacity with Obs over the capacity without.
func obsCapRatio(w workload, seed int64, window time.Duration) (float64, error) {
	var caps [2]float64
	w.standing = 5000
	for i, withObs := range []bool{false, true} {
		tb, err := setUp(w, seed, withObs)
		if err != nil {
			return 0, err
		}
		ph := tb.d.runClosed("obs-cap", tb.sch.stream(), window)
		tb.close()
		if ph.Failed+ph.TimedOut > 0 || ph.Succeeded == 0 {
			return 0, fmt.Errorf("%d failed, %d timed out, %d succeeded", ph.Failed, ph.TimedOut, ph.Succeeded)
		}
		caps[i] = ph.quartile(sliceRate, true)
	}
	return caps[1] / caps[0], nil
}
