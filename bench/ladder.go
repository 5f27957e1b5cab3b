package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"time"

	"scale/internal/core"
	"scale/internal/enb"
	"scale/internal/hss"
	"scale/internal/mlb"
	"scale/internal/mmp"
	"scale/internal/nas"
	"scale/internal/s11"
	"scale/internal/s1ap"
	"scale/internal/s6"
	"scale/internal/sgw"
	"scale/internal/state"
	"scale/internal/transport"
	"scale/internal/wire"
)

// The ladder is the traced run: the same seeded schedule replayed with
// one operation in flight over a path assembled by hand from the layers'
// public functions, with a span around each call. It has none of core's
// glue — no MLB dispatch, no agent queue, no goroutine hand-off, no
// write coalescing — so what the live path's median adds on top of the
// ladder's total is that glue's cost.
const (
	ladderStanding = 2000 // standing population of the replay
	ladderWarmup   = 200  // untimed operations before the passes
	ladderOps      = 2000 // timed operations with spans off, and again with spans on
	ladderBlock    = 100  // the two alternate in blocks this long, so drift cancels
	ladderMemOps   = 200  // operations of the allocation pass
	ladderCell     = 1
)

// hop is one direction of a loopback TCP link between two layers.
type hop struct {
	tx, rx *transport.Conn
}

func newHop() (*hop, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	tx, err := transport.Dial(ln.Addr().String())
	if err != nil {
		return nil, err
	}
	nc, err := ln.Accept()
	if err != nil {
		tx.Close()
		return nil, err
	}
	return &hop{tx: tx, rx: transport.NewConn(nc)}, nil
}

func (h *hop) close() {
	h.tx.Close()
	h.rx.Close()
}

// carry encodes one frame, writes it on the hop, reads it from the peer
// and decodes it, with a span around each of the three.
func (h *hop) carry(rec *recorder, stream uint16, encName string, encode func(*wire.Writer), decode func([]byte) error) error {
	s := rec.begin(encName)
	fw := transport.GetFrame()
	encode(fw)
	rec.end(s)
	s = rec.begin("transport.hop")
	if err := h.tx.WriteFrame(stream, 0, fw); err != nil {
		rec.end(s)
		return err
	}
	msg, err := h.rx.Read()
	rec.end(s)
	if err != nil {
		return err
	}
	err = decode(msg.Payload)
	msg.Free()
	return err
}

// spanHSS, spanSGW and spanRep decorate the engine's three outward
// interfaces with child spans around the real loopback RPCs.
type spanHSS struct {
	rec   *recorder
	inner *hss.Client
}

func (h spanHSS) AuthInfo(imsi uint64, sn string, n uint8) (*s6.AuthInfoAnswer, error) {
	defer h.rec.end(h.rec.begin("s6a.auth_info"))
	return h.inner.AuthInfo(imsi, sn, n)
}

func (h spanHSS) UpdateLocation(imsi uint64, mme string) (*s6.UpdateLocationAnswer, error) {
	defer h.rec.end(h.rec.begin("s6a.update_location"))
	return h.inner.UpdateLocation(imsi, mme)
}

func (h spanHSS) Purge(imsi uint64) error {
	defer h.rec.end(h.rec.begin("s6a.purge"))
	return h.inner.Purge(imsi)
}

type spanSGW struct {
	rec   *recorder
	inner *sgw.Client
}

func (g spanSGW) CreateSession(imsi uint64, teid uint32, apn string, ebi uint8) (*s11.CreateSessionResponse, error) {
	defer g.rec.end(g.rec.begin("s11.create_session"))
	return g.inner.CreateSession(imsi, teid, apn, ebi)
}

func (g spanSGW) ModifyBearer(sgwTEID, enbTEID uint32, addr string, ebi uint8) (*s11.ModifyBearerResponse, error) {
	defer g.rec.end(g.rec.begin("s11.modify_bearer"))
	return g.inner.ModifyBearer(sgwTEID, enbTEID, addr, ebi)
}

func (g spanSGW) ReleaseAccessBearers(sgwTEID uint32) (*s11.ReleaseAccessBearersResponse, error) {
	defer g.rec.end(g.rec.begin("s11.release_bearers"))
	return g.inner.ReleaseAccessBearers(sgwTEID)
}

func (g spanSGW) DeleteSession(sgwTEID uint32, ebi uint8) (*s11.DeleteSessionResponse, error) {
	defer g.rec.end(g.rec.begin("s11.delete_session"))
	return g.inner.DeleteSession(sgwTEID, ebi)
}

// spanRep delivers a snapshot the way the MLB's replicate fan-out does —
// to the ring's other holders and the recorded master — but in line:
// marshal, unmarshal and the peer engine's ApplyReplica, a span each.
type spanRep struct {
	bed *ladderBed
}

func (r spanRep) Replicate(from string, ctx *state.UEContext) {
	rec := r.bed.rec
	defer rec.end(rec.begin("replicate.push"))
	s := rec.begin("replicate.marshal")
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	ctx.MarshalTo(w)
	rec.end(s)
	owners, err := r.bed.router.Ring().Owners(ctx.GUTI.Key(), mlb.ReplicaFanout)
	if err != nil {
		r.bed.fail(err)
		return
	}
	targets := map[string]bool{ctx.MasterMMP: true}
	for _, o := range owners {
		targets[string(o)] = true
	}
	delete(targets, from)
	for id := range targets {
		peer := r.bed.engines[id]
		if peer == nil {
			r.bed.fail(fmt.Errorf("replica push for %s names unknown holder %q", ctx.GUTI, id))
			return
		}
		s = rec.begin("replicate.unmarshal")
		copied, err := state.Unmarshal(w.Bytes())
		rec.end(s)
		if err != nil {
			r.bed.fail(err)
			return
		}
		s = rec.begin("replicate.apply")
		err = peer.ApplyReplica(copied)
		rec.end(s)
		if err != nil && !errors.Is(err, state.ErrStale) {
			r.bed.fail(err)
		}
	}
}

// ladderBed is the hand-assembled path: an emulator, four hops, a
// router, the engines and real HSS and S-GW servers behind their
// clients.
type ladderBed struct {
	rec     *recorder
	emu     *enb.Emulator
	router  *mlb.Router
	engines map[string]*mmp.Engine
	// enbToMLB, mlbToMMP, mmpToMLB and mlbToENB, in that order.
	hops    [4]*hop
	hssSrv  *hss.Server
	sgwSrv  *sgw.Server
	hssCli  *hss.Client
	sgwCli  *sgw.Client
	uplinks []s1ap.Message // queued by the emulator's Uplink hook
	err     error          // first failure inside a decorator or the hook
}

func (b *ladderBed) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

func newLadderBed(w workload) (*ladderBed, error) {
	b := &ladderBed{rec: newRecorder(), emu: enb.New(), engines: map[string]*mmp.Engine{}}
	db := hss.NewDB()
	db.ProvisionRange(firstIMSI, subscribers)
	var err error
	if b.hssSrv, err = hss.Serve("127.0.0.1:0", db); err != nil {
		return nil, err
	}
	if b.sgwSrv, err = sgw.Serve("127.0.0.1:0", sgw.New()); err != nil {
		b.close()
		return nil, err
	}
	if b.hssCli, err = hss.DialClient(b.hssSrv.Addr()); err != nil {
		b.close()
		return nil, err
	}
	if b.sgwCli, err = sgw.DialClient(b.sgwSrv.Addr()); err != nil {
		b.close()
		return nil, err
	}
	for i := range b.hops {
		if b.hops[i], err = newHop(); err != nil {
			b.close()
			return nil, err
		}
	}
	b.router = mlb.NewRouter(mlb.Config{Name: "scale-mlb", PLMN: plmn, MMEGI: mmegi, MMEC: 1, Tokens: ringTokens})
	for i := 1; i <= w.mmps; i++ {
		id := fmt.Sprintf("mmp-%d", i)
		// The mmp.Config core.StartMMPAgent builds, with the decorators in
		// place of the bare clients.
		b.engines[id] = mmp.New(mmp.Config{
			ID: id, Index: uint8(i), PLMN: plmn, MMEGI: mmegi, MMEC: 1,
			ServingNetwork: plmn.String(),
			HSS:            spanHSS{b.rec, b.hssCli},
			SGW:            spanSGW{b.rec, b.sgwCli},
			Replicator:     spanRep{b},
		})
		b.router.RegisterMMP(id, uint8(i))
	}
	b.emu.Uplink = func(_ uint32, msg s1ap.Message) { b.uplinks = append(b.uplinks, msg) }
	b.router.HandleS1Setup(b.emu.AddCell(ladderCell, []uint16{ladderCell}))
	return b, nil
}

func (b *ladderBed) close() {
	for _, h := range b.hops {
		if h != nil {
			h.close()
		}
	}
	if b.hssCli != nil {
		b.hssCli.Close()
	}
	if b.sgwCli != nil {
		b.sgwCli.Close()
	}
	if b.sgwSrv != nil {
		b.sgwSrv.Close()
	}
	if b.hssSrv != nil {
		b.hssSrv.Close()
	}
}

// uplink carries one S1AP message from the eNodeB to its engine and
// every reply back into the emulator. It returns the downlinks handled.
func (b *ladderBed) uplink(up s1ap.Message) ([]s1ap.Message, error) {
	rec := b.rec
	var atMLB s1ap.Message
	err := b.hops[0].carry(rec, transport.StreamUE, "codec.marshal",
		func(w *wire.Writer) { s1ap.MarshalTo(w, up) },
		func(p []byte) (err error) {
			defer rec.end(rec.begin("codec.unmarshal"))
			atMLB, err = s1ap.Unmarshal(p)
			return err
		})
	if err != nil {
		return nil, err
	}
	s := rec.begin("mlb.route")
	d, err := b.router.Route(atMLB)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	var atMMP s1ap.Message
	err = b.hops[1].carry(rec, core.StreamS1, "codec.envelope_enc",
		func(w *wire.Writer) { w.Raw(core.EncodeEnvelope(ladderCell, 0, d.Msg)) },
		func(p []byte) (err error) {
			defer rec.end(rec.begin("codec.envelope_dec"))
			_, _, atMMP, err = core.DecodeEnvelope(p)
			return err
		})
	if err != nil {
		return nil, err
	}
	s = rec.begin("mmp.handle")
	out, err := b.engines[d.Target].Handle(ladderCell, atMMP)
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s on %s: %w", atMMP.Type(), d.Target, err)
	}
	var handled []s1ap.Message
	for _, o := range out {
		var backAtMLB, atENB s1ap.Message
		err = b.hops[2].carry(rec, core.StreamS1, "codec.envelope_enc",
			func(w *wire.Writer) { w.Raw(core.EncodeEnvelope(o.ENB, o.TAI, o.Msg)) },
			func(p []byte) (err error) {
				defer rec.end(rec.begin("codec.envelope_dec"))
				_, _, backAtMLB, err = core.DecodeEnvelope(p)
				return err
			})
		if err != nil {
			return nil, err
		}
		err = b.hops[3].carry(rec, transport.StreamUE, "codec.marshal",
			func(w *wire.Writer) { s1ap.MarshalTo(w, backAtMLB) },
			func(p []byte) (err error) {
				defer rec.end(rec.begin("codec.unmarshal"))
				atENB, err = s1ap.Unmarshal(p)
				return err
			})
		if err != nil {
			return nil, err
		}
		s = rec.begin("enb.downlink")
		b.emu.HandleDownlink(ladderCell, atENB)
		rec.end(s)
		handled = append(handled, atENB)
	}
	return handled, b.err
}

// runOp performs one operation with nothing else in flight and returns
// how long its timed part took. The timed part is under an "op" root
// span, the untimed follow-up under a "followup" root.
func (b *ladderBed) runOp(a arrival) (time.Duration, error) {
	rec := b.rec
	imsi := firstIMSI + uint64(a.dev)
	ue := b.emu.UEFor(imsi)
	kind := a.kind
	if ue.State == enb.Detached {
		kind = opAttach // as the live driver does
	}
	rec.op++
	root := rec.begin("op")
	start := time.Now()
	var timed time.Duration
	s := rec.begin("enb.start")
	var err error
	switch kind {
	case opAttach:
		err = b.emu.StartAttach(imsi, ladderCell)
	case opService:
		err = b.emu.StartServiceRequest(imsi, ladderCell)
	case opTAU:
		err = b.emu.TAU(imsi, ladderCell)
	case opDetach:
		err = b.emu.Detach(imsi, false)
	}
	rec.end(s)
	if err != nil {
		rec.end(root)
		return 0, fmt.Errorf("imsi %d: %w", imsi, err)
	}
	released := false
	for len(b.uplinks) > 0 {
		up := b.uplinks[0]
		b.uplinks = b.uplinks[1:]
		handled, err := b.uplink(up)
		if err != nil {
			rec.end(root)
			return 0, fmt.Errorf("imsi %d: %w", imsi, err)
		}
		if timed != 0 {
			continue
		}
		done := false
		switch kind {
		case opAttach, opService:
			done = ue.State == enb.Active
		case opTAU:
			done = len(handled) > 0 && nasType(handled[len(handled)-1]) == nas.TypeTAUAccept
		case opDetach:
			done = len(handled) > 0 && nasType(handled[len(handled)-1]) == nas.TypeDetachAccept
		}
		if ue.LastError != 0 {
			rec.end(root)
			return 0, fmt.Errorf("imsi %d: rejected with NAS cause %d", imsi, ue.LastError)
		}
		if done {
			timed = time.Since(start)
			rec.end(root)
			root = rec.begin("followup")
			if !released && (kind == opAttach || kind == opService) {
				released = true
				b.emu.Uplink(ladderCell, &s1ap.UEContextReleaseRequest{
					ENBUEID: ue.ENBUEID, MMEUEID: ue.MMEUEID, Cause: 1,
				})
			}
		}
	}
	rec.end(root)
	want := enb.Idle
	if kind == opDetach {
		want = enb.Detached
	}
	if timed == 0 || ue.State != want {
		return 0, fmt.Errorf("imsi %d: %s left the UE %s (timed part done: %v)", imsi, kind, ue.State, timed != 0)
	}
	return timed, nil
}

// ladder replays the workload serially and fills the ladder.* metrics.
func ladder(res *runResult, w workload, seed int64, outDir string) error {
	b, err := newLadderBed(w)
	if err != nil {
		return err
	}
	defer b.close()
	w.standing = min(w.standing, ladderStanding)
	sch := newSchedule(w, seed)
	next := sch.stream()
	pass := func(n int, source func() (arrival, bool)) ([]int64, error) {
		var totals []int64
		for i := 0; i < n; i++ {
			a, ok := source()
			if !ok {
				if sch.err != nil {
					return nil, sch.err
				}
				break
			}
			d, err := b.runOp(a)
			if err != nil {
				return nil, err
			}
			totals = append(totals, int64(d))
		}
		return totals, nil
	}
	if _, err := pass(w.standing, sch.setupArrivals()); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	if _, err := pass(ladderWarmup, next); err != nil {
		return err
	}
	// Spans off and on alternate in blocks, and the overhead is the median
	// over the pairs of adjacent blocks of the ratio of their medians: the
	// box's per-hop cost drifts on a scale of seconds, and two pooled
	// medians would land on different sides of a drift.
	var on []int64
	var ratios []float64
	for done := 0; done < ladderOps; done += ladderBlock {
		b.rec.on = false
		without, err := pass(ladderBlock, next)
		if err != nil {
			return err
		}
		b.rec.on = true
		with, err := pass(ladderBlock, next)
		if err != nil {
			return err
		}
		slices.Sort(without)
		slices.Sort(with)
		ratios = append(ratios, float64(quantile(with, 0.5))/float64(quantile(without, 0.5)))
		on = append(on, with...)
	}
	slices.Sort(on)
	timed := b.rec.spans
	b.rec.spans, b.rec.mem = nil, true
	if _, err := pass(ladderMemOps, next); err != nil {
		return err
	}
	memSpans := b.rec.spans

	p := res.PerLayer
	us := perOpByLayer(timed, selfTimes(timed))
	allocs := perOpByLayer(memSpans, selfAllocs(memSpans))
	calls := callsPerOp(timed)
	p["ladder.enb_us"] = us["enb"] / 1e3
	p["ladder.codec_us"] = us["codec"] / 1e3
	p["ladder.codec_allocs"] = allocs["codec"]
	p["ladder.transport_us"] = us["transport"] / 1e3
	p["ladder.transport_hops"] = calls["transport.hop"]
	p["ladder.mlb_route_us"] = us["mlb"] / 1e3
	p["ladder.mlb_route_allocs"] = allocs["mlb"]
	p["ladder.mmp_engine_us"] = us["mmp"] / 1e3
	p["ladder.mmp_engine_allocs"] = allocs["mmp"]
	p["ladder.s6a_wait_us"] = us["s6a"] / 1e3
	p["ladder.s6a_calls"] = calls["s6a"]
	p["ladder.s11_wait_us"] = us["s11"] / 1e3
	p["ladder.s11_calls"] = calls["s11"]
	p["ladder.replicate_us"] = us["replicate"] / 1e3
	p["ladder.replicate_calls"] = calls["replicate.push"]
	p["ladder.total_us"] = float64(quantile(on, 0.5)) / 1e3
	p["ladder.trace_overhead_pct"] = 100 * (medianF(ratios) - 1)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(outDir, w.name+".spans.jsonl"), timed)
}

// timedSpans marks the spans under an "op" root, the timed part of an
// operation. Parents precede their children in the recorder's order.
func timedSpans(spans []span) []bool {
	timed := make([]bool, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			timed[i] = timed[p]
		} else {
			timed[i] = spans[i].Name == "op"
		}
	}
	return timed
}

// perOpByLayer sums each operation's self values by layer over its timed
// part and returns each layer's median across operations.
func perOpByLayer(spans []span, self []int64) map[string]float64 {
	perOp := map[int32]map[string]int64{}
	for i, timed := range timedSpans(spans) {
		s := &spans[i]
		switch {
		case !timed:
		case s.Parent < 0:
			perOp[s.Op] = map[string]int64{}
		default:
			perOp[s.Op][layerOf(s.Name)] += self[i]
		}
	}
	byLayer := map[string][]int64{}
	for _, layers := range perOp {
		for _, l := range []string{"enb", "codec", "transport", "mlb", "mmp", "s6a", "s11", "replicate"} {
			byLayer[l] = append(byLayer[l], layers[l])
		}
	}
	out := map[string]float64{}
	for l, v := range byLayer {
		slices.Sort(v)
		out[l] = float64(quantile(v, 0.5))
	}
	return out
}

// callsPerOp is the mean number of spans per operation's timed part,
// keyed both by full span name and by layer.
func callsPerOp(spans []span) map[string]float64 {
	counts := map[string]float64{}
	ops := 0.0
	for i, timed := range timedSpans(spans) {
		s := &spans[i]
		switch {
		case !timed:
		case s.Parent < 0:
			ops++
		default:
			counts[s.Name]++
			if l := layerOf(s.Name); l != s.Name {
				counts[l]++
			}
		}
	}
	for k := range counts {
		counts[k] /= ops
	}
	return counts
}
