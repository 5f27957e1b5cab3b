package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"scale/internal/enb"
	"scale/internal/nas"
	"scale/internal/s1ap"
	"scale/internal/transport"
)

// opKind is what one operation does to its device.
type opKind uint8

const (
	opAttach  opKind = iota // attach, timed due→Active, then release to Idle
	opService               // service request, timed due→Active, then release
	opTAU                   // tracking-area update, timed due→TAUAccept
	opDetach                // detach, timed due→DetachAccept
)

func (k opKind) String() string {
	return [...]string{"attach", "service request", "TAU", "detach"}[k]
}

// opTimeout fails an operation not complete this long after its due time.
const opTimeout = 2 * time.Second

// arrival is one scheduled operation: at is the offset from the start of
// its phase (ignored by closed-loop phases).
type arrival struct {
	at   time.Duration
	dev  int32
	kind opKind
}

// device is one emulated UE as the driver sees it. All fields are guarded
// by the owning connection's mutex.
type device struct {
	imsi uint64
	conn *s1conn
	ue   *enb.UE

	// The operation in flight, if busy.
	busy    bool
	kind    opKind
	timed   bool // the timed part has not completed yet
	due     time.Time
	enbUEID uint32
	// queue holds arrivals that came while the device was busy; they run
	// in order and are still timed from their own due times.
	queue []queued
	// stuck marks a device whose operation timed out; its emulator state is
	// unknown, so later arrivals for it fail at once.
	stuck bool
	// bad records an operation that completed but left the emulator's UE in
	// another state than it should have.
	bad string
}

type queued struct {
	kind opKind
	due  time.Time
}

// s1conn is one S1 connection: an emulator, a framed TCP connection to
// the MLB and the reader goroutine that feeds downlinks back into the
// emulator. The emulator is not safe for concurrent use, so the
// scheduler and the reader share it under mu.
type s1conn struct {
	drv  *driver
	cell uint32
	conn *transport.Conn

	mu     sync.Mutex
	emu    *enb.Emulator
	byUEID map[uint32]*device // eNB-UE-S1AP-ID of the op in flight → device
	// Per-phase results, reset by beginPhase.
	phaseStart time.Time
	sliceLen   time.Duration
	lat        [][]int64 // due→completion, ns, by slice of the due time
	late       [][]int64 // due→submit, ns (generator lateness), likewise
	ok         int
	failed     int
	slow       int // completed, but later than opTimeout

	readerDone chan struct{}
}

// driver drives a cluster through its S1 connections.
type driver struct {
	conns []*s1conn
	// devs is indexed by IMSI offset; entries are created on first use by
	// the scheduler goroutine, the only one to touch the slice.
	devs  []*device
	clock *sleeper

	outstanding atomic.Int64
	// closedLoop is set during closed-loop phases, when tokens bounds the
	// operations in flight: the scheduler takes one per submit, a finished
	// operation returns it.
	closedLoop atomic.Bool
	tokens     chan struct{}

	errMu   sync.Mutex
	errs    []string // first few failures, naming the IMSI
	errSeen int
}

// s1Connections is how many S1 connections (and emulators, and reader
// goroutines) the driver opens.
func s1Connections() int {
	return min(runtime.NumCPU(), 4)
}

// newDriver opens the S1 connections to the MLB and registers one cell
// per connection. Device i lives on connection i mod n with IMSI
// firstIMSI+i.
func newDriver(enbAddr string) (*driver, error) {
	clock, err := newSleeper()
	if err != nil {
		return nil, err
	}
	d := &driver{
		devs:   make([]*device, subscribers),
		clock:  clock,
		tokens: make(chan struct{}, inFlight), // one slot per closed-loop operation in flight
	}
	for i := 0; i < s1Connections(); i++ {
		conn, err := transport.Dial(enbAddr)
		if err != nil {
			d.close()
			return nil, err
		}
		c := &s1conn{
			drv: d, cell: uint32(i + 1), conn: conn,
			emu:        enb.New(),
			byUEID:     make(map[uint32]*device),
			readerDone: make(chan struct{}),
		}
		c.emu.Uplink = c.uplink
		d.conns = append(d.conns, c)
		go c.readLoop()
		setup := c.emu.AddCell(c.cell, []uint16{uint16(c.cell)})
		if err := conn.Write(transport.StreamCommon, s1ap.Marshal(setup)); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

// device returns device i, creating it on first use.
func (d *driver) device(i int32) *device {
	dev := d.devs[i]
	if dev == nil {
		c := d.conns[int(i)%len(d.conns)]
		dev = &device{imsi: firstIMSI + uint64(i), conn: c}
		c.mu.Lock()
		dev.ue = c.emu.UEFor(dev.imsi)
		c.mu.Unlock()
		d.devs[i] = dev
	}
	return dev
}

// close tears the S1 connections down and waits for the readers.
func (d *driver) close() {
	for _, c := range d.conns {
		c.conn.Close()
		<-c.readerDone
	}
	d.clock.close()
}

func (d *driver) fail(imsi uint64, format string, args ...interface{}) {
	d.errMu.Lock()
	d.errSeen++
	if len(d.errs) < 8 {
		d.errs = append(d.errs, fmt.Sprintf("imsi %d: %s", imsi, fmt.Sprintf(format, args...)))
	}
	d.errMu.Unlock()
}

// uplink is the emulator's Uplink hook: encode straight into a pooled
// frame, as the MLB's own send path does. Called with c.mu held.
func (c *s1conn) uplink(_ uint32, msg s1ap.Message) {
	w := transport.GetFrame()
	s1ap.MarshalTo(w, msg)
	if err := c.conn.WriteFrame(transport.StreamUE, 0, w); err != nil {
		c.drv.fail(0, "uplink %s: %v", msg.Type(), err)
	}
}

func (c *s1conn) readLoop() {
	defer close(c.readerDone)
	for {
		frame, err := c.conn.Read()
		if err != nil {
			return
		}
		msg, err := s1ap.Unmarshal(frame.Payload)
		frame.Free() // the decode copied every field out
		if err != nil {
			c.drv.fail(0, "downlink decode: %v", err)
			continue
		}
		id, perUE := downlinkUE(msg)
		c.mu.Lock()
		c.emu.HandleDownlink(c.cell, msg)
		if perUE {
			if dev := c.byUEID[id]; dev != nil && dev.busy {
				c.advance(dev, msg)
			}
		}
		c.mu.Unlock()
	}
}

// downlinkUE returns the eNB-UE-S1AP-ID a downlink addresses.
func downlinkUE(msg s1ap.Message) (uint32, bool) {
	switch m := msg.(type) {
	case *s1ap.DownlinkNASTransport:
		return m.ENBUEID, true
	case *s1ap.InitialContextSetupRequest:
		return m.ENBUEID, true
	case *s1ap.UEContextReleaseCommand:
		return m.ENBUEID, true
	}
	return 0, false
}

// nasType peeks the NAS message type of a downlink without decoding it.
func nasType(msg s1ap.Message) nas.MessageType {
	if m, ok := msg.(*s1ap.DownlinkNASTransport); ok && len(m.NASPDU) > 0 {
		return nas.MessageType(m.NASPDU[0])
	}
	return 0
}

// submit hands one arrival to its device: started now if the device is
// free, queued behind the operation in flight otherwise.
func (d *driver) submit(a arrival, due time.Time) {
	dev := d.device(a.dev)
	c := dev.conn
	d.outstanding.Add(1)
	c.mu.Lock()
	if !d.closedLoop.Load() {
		i := c.slice(due)
		c.late[i] = append(c.late[i], int64(time.Since(due)))
	}
	switch {
	case dev.stuck:
		d.fail(dev.imsi, "arrival for a device whose earlier operation timed out")
		c.finish(dev, false)
	case dev.busy:
		dev.queue = append(dev.queue, queued{a.kind, due})
	default:
		c.start(dev, a.kind, due)
	}
	c.mu.Unlock()
}

// start begins one operation. Called with c.mu held.
func (c *s1conn) start(dev *device, kind opKind, due time.Time) {
	// A detached device can only attach, whatever the schedule drew for
	// it; operations on one device run in schedule order, so this is
	// decided by the seed, not by timing.
	if dev.ue.State == enb.Detached {
		kind = opAttach
	}
	dev.busy, dev.kind, dev.timed, dev.due = true, kind, true, due
	var err error
	switch kind {
	case opAttach:
		err = c.emu.StartAttach(dev.imsi, c.cell)
	case opService:
		err = c.emu.StartServiceRequest(dev.imsi, c.cell)
	case opTAU:
		err = c.emu.TAU(dev.imsi, c.cell)
	case opDetach:
		err = c.emu.Detach(dev.imsi, false)
	}
	if err != nil {
		c.drv.fail(dev.imsi, "%s could not start: %v", kind, err)
		c.finish(dev, false)
		return
	}
	dev.enbUEID = dev.ue.ENBUEID
	c.byUEID[dev.enbUEID] = dev
}

// advance looks at the device a downlink addressed and moves its
// operation along on the state transition. Called with c.mu held, after
// the emulator handled msg.
func (c *s1conn) advance(dev *device, msg s1ap.Message) {
	ue := dev.ue
	switch dev.kind {
	case opAttach, opService:
		switch {
		case dev.timed && ue.State == enb.Active:
			c.timedDone(dev)
			// The follow-up: an eNodeB-initiated inactivity release.
			c.emu.Uplink(c.cell, &s1ap.UEContextReleaseRequest{
				ENBUEID: ue.ENBUEID, MMEUEID: ue.MMEUEID, Cause: 1,
			})
		case dev.timed && ue.LastError != 0:
			c.drv.fail(dev.imsi, "rejected with NAS cause %d", ue.LastError)
			c.finish(dev, false)
		case !dev.timed && ue.State == enb.Idle:
			c.finish(dev, true)
		}
	case opTAU:
		switch nasType(msg) {
		case nas.TypeTAUAccept:
			c.timedDone(dev)
			c.finish(dev, true)
		case nas.TypeTAUReject:
			c.drv.fail(dev.imsi, "TAU rejected with NAS cause %d", ue.LastError)
			c.finish(dev, false)
		}
	case opDetach:
		if nasType(msg) == nas.TypeDetachAccept {
			c.timedDone(dev)
			c.finish(dev, true)
		}
	}
}

// timedDone records the latency of the timed part, from the due time, in
// the slice of the phase the operation was due in.
func (c *s1conn) timedDone(dev *device) {
	dev.timed = false
	i := c.slice(dev.due)
	c.lat[i] = append(c.lat[i], int64(time.Since(dev.due)))
}

// slice is the index of the phase's slice an operation due at t belongs to.
func (c *s1conn) slice(t time.Time) int {
	return min(max(int(t.Sub(c.phaseStart)/c.sliceLen), 0), len(c.lat)-1)
}

// finish ends the device's operation and starts the next queued one.
func (c *s1conn) finish(dev *device, ok bool) {
	switch {
	case !ok:
		c.failed++
	case time.Since(dev.due) > opTimeout:
		c.slow++
		c.drv.fail(dev.imsi, "completed %v after its due time", time.Since(dev.due).Round(time.Millisecond))
	default:
		c.ok++
		want := enb.Idle
		if dev.kind == opDetach {
			want = enb.Detached
		}
		if dev.ue.State != want {
			dev.bad = fmt.Sprintf("%s completed with the UE %s, want %s", dev.kind, dev.ue.State, want)
		}
	}
	if dev.enbUEID != 0 {
		delete(c.byUEID, dev.enbUEID)
		dev.enbUEID = 0
	}
	dev.busy = false
	c.drv.outstanding.Add(-1)
	if c.drv.closedLoop.Load() {
		c.drv.tokens <- struct{}{}
	}
	if len(dev.queue) > 0 && !dev.stuck {
		next := dev.queue[0]
		dev.queue = dev.queue[1:]
		c.start(dev, next.kind, next.due)
	}
}

// A phase is cut into slices and its headline numbers are taken over the
// slices (see quartile), so that one stall (a GC cycle, a noisy neighbour)
// moves one slice and not the result.
const (
	openSlice    = 500 * time.Millisecond // open-loop phases, by due time
	closedSlices = 8                      // closed-loop phases with a window
)

// sliceStats is one slice of a phase.
type sliceStats struct {
	Seconds   float64 `json:"seconds"`
	Completed int     `json:"completed"` // operations finished during the slice
	P50US     float64 `json:"p50_us"`    // of the operations due in the slice
	P95US     float64 `json:"p95_us"`
	LateP99US float64 `json:"gen_late_p99_us"` // how late the generator submitted them
	CPUUS     float64 `json:"cpu_us_per_op"`   // process CPU over operations finished
	Backlog   int     `json:"backlog"`         // outstanding when the slice ended
}

// phaseStats is what one phase measured.
type phaseStats struct {
	Name      string  `json:"name"`
	Seconds   float64 `json:"seconds"`
	Attempted int     `json:"attempted"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`    // rejected or could not start
	TimedOut  int     `json:"timed_out"` // not complete opTimeout after due
	// Backlog and GenLateP99 are medians over the slices; GenLateMax is the
	// latest submit of the phase.
	Backlog    int          `json:"backlog"`
	GenLateP99 float64      `json:"gen_late_p99_us"`
	GenLateMax float64      `json:"gen_late_max_us"`
	Slices     []sliceStats `json:"slices,omitempty"`

	lat []int64 // every latency of the phase, sorted
}

// median returns the median over the slices of one of their numbers.
func (ps *phaseStats) median(of func(*sliceStats) float64) float64 {
	v := make([]float64, len(ps.Slices))
	for i := range ps.Slices {
		v[i] = of(&ps.Slices[i])
	}
	return medianF(v)
}

// quartile returns, of one of the slices' numbers, the quartile on the
// good side: the third where higher is better, the first where lower is.
// What disturbs the box (another guest of the host, a GC cycle) only ever
// makes a slice worse, and for seconds on end, so that on a bad day most
// slices of a run are touched and their median moves with the neighbours;
// the good-side quartile is what the program does when left alone, and it
// moves when the program does.
func (ps *phaseStats) quartile(of func(*sliceStats) float64, higherIsBetter bool) float64 {
	v := make([]float64, len(ps.Slices))
	for i := range ps.Slices {
		v[i] = of(&ps.Slices[i])
	}
	q1, q3 := quartiles(v) // beyond the sample when it has two values
	if higherIsBetter {
		return min(q3, slices.Max(v))
	}
	return max(q1, slices.Min(v))
}

// mark is the scheduler's reading of the counters at a slice boundary.
type mark struct {
	at          time.Time
	cpu         time.Duration
	completed   int
	outstanding int
}

func (d *driver) mark() mark {
	return mark{at: time.Now(), cpu: cpuTime(), completed: d.completed(), outstanding: int(d.outstanding.Load())}
}

// beginPhase resets the per-phase results; latencies will be filed in
// slices of sliceLen from start.
func (d *driver) beginPhase(start time.Time, sliceLen time.Duration, slices int) {
	for _, c := range d.conns {
		c.mu.Lock()
		c.phaseStart, c.sliceLen = start, sliceLen
		c.lat, c.late = make([][]int64, slices), make([][]int64, slices)
		c.ok, c.failed, c.slow = 0, 0, 0
		c.mu.Unlock()
	}
}

func (d *driver) completed() int {
	n := 0
	for _, c := range d.conns {
		c.mu.Lock()
		n += c.ok + c.failed + c.slow
		c.mu.Unlock()
	}
	return n
}

// endPhase waits for the outstanding operations (until deadline), fails
// the ones still running then, and collects the phase's numbers; marks
// are the scheduler's readings at the slice boundaries, first to last.
func (d *driver) endPhase(ps *phaseStats, marks []mark, deadline time.Time) {
	for d.outstanding.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	bySlice := make([][]int64, len(d.conns[0].lat))
	lateBySlice := make([][]int64, len(bySlice))
	for _, c := range d.conns {
		c.mu.Lock()
		ps.Succeeded += c.ok
		ps.Failed += c.failed
		ps.TimedOut += c.slow
		for i := range c.lat {
			bySlice[i] = append(bySlice[i], c.lat[i]...)
			lateBySlice[i] = append(lateBySlice[i], c.late[i]...)
		}
		c.mu.Unlock()
	}
	if d.outstanding.Load() > 0 {
		for _, dev := range d.devs {
			if dev == nil {
				continue
			}
			c := dev.conn
			c.mu.Lock()
			if dev.busy {
				n := 1 + len(dev.queue)
				ps.TimedOut += n
				d.outstanding.Add(int64(-n))
				d.fail(dev.imsi, "%s not complete %v after its due time (UE %s)", dev.kind, opTimeout, dev.ue.State)
				delete(c.byUEID, dev.enbUEID)
				dev.busy, dev.stuck, dev.queue, dev.enbUEID = false, true, nil, 0
			}
			c.mu.Unlock()
		}
	}
	var backlogs []float64
	for i := 1; i < len(marks); i++ {
		from, to := marks[i-1], marks[i]
		sl := sliceStats{
			Seconds:   to.at.Sub(from.at).Seconds(),
			Completed: to.completed - from.completed,
			Backlog:   to.outstanding,
		}
		if sl.Completed > 0 {
			sl.CPUUS = float64((to.cpu - from.cpu).Microseconds()) / float64(sl.Completed)
		}
		if len(bySlice) == len(marks)-1 { // open loop: latencies are filed by slice
			l, late := bySlice[i-1], lateBySlice[i-1]
			slices.Sort(l)
			slices.Sort(late)
			sl.P50US = float64(quantile(l, 0.5)) / 1e3
			sl.P95US = tailUS(l, 0.95)
			sl.LateP99US = float64(quantile(late, 0.99)) / 1e3
			if n := len(late); n > 0 {
				ps.GenLateMax = max(ps.GenLateMax, float64(late[n-1])/1e3)
			}
		}
		ps.Slices = append(ps.Slices, sl)
		backlogs = append(backlogs, float64(sl.Backlog))
	}
	ps.Backlog = int(medianF(backlogs))
	ps.GenLateP99 = ps.median(func(s *sliceStats) float64 { return s.LateP99US })
	for _, l := range bySlice {
		ps.lat = append(ps.lat, l...)
	}
	slices.Sort(ps.lat)
}

// inFlight is how many operations a closed-loop phase keeps outstanding.
const inFlight = 64

// runClosed runs arrivals closed-loop with inFlight operations
// outstanding. With window > 0 it stops issuing when the window ends,
// having read the counters closedSlices times on the way; otherwise it
// runs next dry.
func (d *driver) runClosed(name string, next func() (arrival, bool), window time.Duration) phaseStats {
	ps := phaseStats{Name: name}
	start := time.Now()
	d.beginPhase(start, time.Hour, 1)
	for len(d.tokens) > 0 {
		<-d.tokens
	}
	for i := 0; i < inFlight; i++ {
		d.tokens <- struct{}{}
	}
	d.closedLoop.Store(true)
	stall := time.NewTimer(opTimeout)
	defer stall.Stop()
	marks := []mark{d.mark()}
	boundary := window / closedSlices
issue:
	for window == 0 || len(marks) <= closedSlices {
		a, ok := next()
		if !ok {
			break
		}
		stall.Reset(opTimeout)
		select {
		case <-d.tokens:
		case <-stall.C:
			break issue // every slot is held by a lost operation
		}
		d.submit(a, time.Now())
		ps.Attempted++
		if window > 0 && time.Since(start) >= boundary {
			marks = append(marks, d.mark())
			boundary += window / closedSlices
		}
	}
	if window > 0 {
		ps.Seconds = time.Since(start).Seconds()
	}
	d.endPhase(&ps, marks, time.Now().Add(opTimeout))
	if window == 0 {
		ps.Seconds = time.Since(start).Seconds()
	}
	d.closedLoop.Store(false)
	return ps
}

// runOpen replays arrivals open-loop: each is submitted at its due time
// whatever the cluster is doing, and timed from that due time.
func (d *driver) runOpen(name string, arrs []arrival, dur time.Duration) phaseStats {
	ps := phaseStats{Name: name, Seconds: dur.Seconds(), Attempted: len(arrs)}
	slices := int((dur + openSlice - 1) / openSlice)
	start := time.Now()
	d.beginPhase(start, openSlice, slices)
	marks := []mark{d.mark()}
	boundary := func(i int) time.Duration { return min(time.Duration(i)*openSlice, dur) }
	for _, a := range arrs {
		for len(marks) <= slices && a.at >= boundary(len(marks)) {
			d.clock.until(start.Add(boundary(len(marks))))
			marks = append(marks, d.mark())
		}
		due := start.Add(a.at)
		d.clock.until(due)
		d.submit(a, due)
	}
	for len(marks) <= slices {
		d.clock.until(start.Add(boundary(len(marks))))
		marks = append(marks, d.mark())
	}
	d.endPhase(&ps, marks, start.Add(dur).Add(opTimeout))
	return ps
}
