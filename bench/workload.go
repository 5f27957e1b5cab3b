package main

import (
	"fmt"
	"strings"
	"time"

	"scale/internal/trace"
)

// workload is one traffic mix. The open-loop rates are constants, up to
// 22 % (lo) and 30-45 % (hi) of the seed commit's closed-loop capacity on
// the 2-vCPU reference box; they are never scaled to the machine, so both
// sides of an A/B see the same offered load. hi stays below half the
// capacity: at 55-59 % of it (attach_storm at 2500/s, idle_active at
// 6000/s) hi_p95_us moved 5-30 % between identical runs, depending on
// what else the host was doing.
type workload struct {
	name string
	why  string
	mmps int
	// standing is the population attached and released to Idle in setup;
	// dist weights the draw of a device from it.
	standing int
	dist     trace.WeightDist
	mix      trace.Mix
	loRate   float64 // operations per second
	hiRate   float64
	// knownFailing keeps a workload out of the gated set: it is runnable by
	// name and documents a defect of the cluster, but operations fail on it.
	knownFailing bool
}

var workloads = []workload{
	{
		name: "attach_storm",
		why: "fresh IMSIs attach then release: 3-4 synchronous S6a/S11 RPCs per attach on the agent's " +
			"single S1 worker, AKA, PutMaster, table growth and the least-loaded pick",
		mmps: 2, standing: 4000, dist: trace.Uniform{Lo: 1, Hi: 1},
		mix:    trace.Mix{trace.Attach: 1},
		loRate: 1000, hiRate: 2000,
	},
	{
		name: "idle_active",
		why: "service request then release on uniformly drawn idle devices: GUTI-hash routing, table " +
			"lookups, S11 modify/release and a replica push per release, with almost no HSS",
		mmps: 2, standing: 12000, dist: trace.Uniform{Lo: 1, Hi: 1},
		mix:    trace.Mix{trace.ServiceRequest: 1},
		loRate: 2000, hiRate: 4500,
	},
	{
		name: "tau_sweep",
		why: "one small frame each way and no S6a/S11 call, so per-frame cost dominates: transport, " +
			"codec, MLB route, agent queue hand-off and the replicate-stream write",
		mmps: 2, standing: 8000, dist: trace.Uniform{Lo: 1, Hi: 1},
		mix:    trace.Mix{trace.TAUpdate: 1},
		loRate: 4000, hiRate: 16000,
	},
	{
		name: "mixed",
		why: "3 MMPs, Zipf(1.1) device weights, service 0.55 / TAU 0.25 / fresh attach 0.10: " +
			"inserts beside lookups, a hot set re-replicated, per-UE ordering under load",
		mmps: 3, standing: 8000, dist: trace.Zipf{S: 1.1},
		mix: trace.Mix{
			trace.ServiceRequest: 0.55, trace.TAUpdate: 0.25, trace.Attach: 0.10,
		},
		loRate: 1500, hiRate: 4500,
	},
	{
		// The mix the benchmark's issue asked for. A detach deletes the
		// context only on the MMP that served it, so the peer's copy
		// outlives the device; when the device re-attaches (the MLB hands
		// it its old GUTI) that stale copy refuses the new one's replica
		// pushes and later rejects its service requests (NAS cause 111).
		name: "mixed_detach",
		why:  "mixed plus detach-with-accept 0.10 and re-attach of detached devices; fails on the seed commit",
		mmps: 3, standing: 8000, dist: trace.Zipf{S: 1.1},
		mix: trace.Mix{
			trace.ServiceRequest: 0.55, trace.TAUpdate: 0.25,
			trace.Attach: 0.10, trace.Detach: 0.10,
		},
		loRate: 1500, hiRate: 4500, knownFailing: true,
	},
}

// gated returns the workloads BENCHMARK.json lists: the ones on which the
// seed commit fails no operation.
func gated() []workload {
	var out []workload
	for _, w := range workloads {
		if !w.knownFailing {
			out = append(out, w)
		}
	}
	return out
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// schedule turns trace.Generator arrival streams into the driver's
// arrivals. The standing population is devices [0, standing); an Attach
// arrival takes the next never-attached IMSI after them instead of the
// device the generator drew.
type schedule struct {
	w     workload
	pop   *trace.Population
	seed  int64
	fresh int32 // next never-attached device index
	calls int64 // generator invocations so far, folded into each one's seed
	err   error // why a closed-loop stream ended early, if it did
}

func newSchedule(w workload, seed int64) *schedule {
	return &schedule{
		w:     w,
		pop:   trace.NewPopulation(w.standing, seed, w.dist),
		seed:  seed,
		fresh: int32(w.standing),
	}
}

func (s *schedule) poisson(rate float64, horizon time.Duration) ([]arrival, error) {
	s.calls++
	g := trace.Generator{Pop: s.pop, Mix: s.w.mix, Seed: s.seed*1_000_003 + s.calls}
	raw := g.Poisson(rate, horizon)
	out := make([]arrival, len(raw))
	for i, a := range raw {
		out[i] = arrival{at: a.At, dev: int32(a.Device)}
		switch a.Proc {
		case trace.Attach:
			if s.fresh >= subscribers {
				return nil, fmt.Errorf("schedule needs more than the %d provisioned IMSIs", subscribers)
			}
			out[i].kind, out[i].dev = opAttach, s.fresh
			s.fresh++
		case trace.ServiceRequest:
			out[i].kind = opService
		case trace.TAUpdate:
			out[i].kind = opTAU
		case trace.Detach:
			out[i].kind = opDetach
		default:
			return nil, fmt.Errorf("workload %s: no driver operation for %s", s.w.name, a.Proc)
		}
	}
	return out, nil
}

// stream is an endless closed-loop arrival source: it draws the
// generator in chunks and hands the arrivals out one by one. Only the
// device and the procedure of each arrival are used.
func (s *schedule) stream() func() (arrival, bool) {
	var buf []arrival
	return func() (arrival, bool) {
		for len(buf) == 0 {
			var err error
			if s.err != nil {
				return arrival{}, false
			}
			// 100 ms at 100k/s: about 10 000 arrivals per draw.
			if buf, err = s.poisson(100_000, 100*time.Millisecond); err != nil {
				s.err = err
				return arrival{}, false
			}
		}
		a := buf[0]
		buf = buf[1:]
		return a, true
	}
}

// setupArrivals attaches every device of the standing population once.
func (s *schedule) setupArrivals() func() (arrival, bool) {
	i := int32(0)
	return func() (arrival, bool) {
		if int(i) >= s.w.standing {
			return arrival{}, false
		}
		i++
		return arrival{dev: i - 1, kind: opAttach}, true
	}
}
