package gvt

import (
	"testing"

	"nicwarp/internal/des"
	"nicwarp/internal/nic"
	"nicwarp/internal/proto"
	"nicwarp/internal/vtime"
)

// ring is a synchronous test harness: a set of Mattern managers whose
// control packets are delivered through a FIFO queue, with controllable LVT
// values and in-transit event messages.
type ring struct {
	t        *testing.T
	managers []*MatternManager
	hosts    []*fakeHost
	queue    []*proto.Packet
}

type fakeHost struct {
	r         *ring
	lp        int
	lvt       vtime.VTime
	committed []vtime.VTime
}

func (h *fakeHost) LP() int                  { return h.lp }
func (h *fakeHost) NumLPs() int              { return len(h.r.hosts) }
func (h *fakeHost) LVT() vtime.VTime         { return h.lvt }
func (h *fakeHost) OutboundMin() vtime.VTime { return vtime.Infinity }
func (h *fakeHost) CommitGVT(g vtime.VTime) {
	h.committed = append(h.committed, g)
}
func (h *fakeHost) SendControl(pkt *proto.Packet) {
	h.r.queue = append(h.r.queue, pkt)
}
func (h *fakeHost) Shared() *nic.SharedWindow { return nil }
func (h *fakeHost) RingDoorbell()             { h.r.t.Fatal("mattern must not use the NIC") }
func (h *fakeHost) Now() vtime.ModelTime      { return 0 }
func (h *fakeHost) Schedule(d vtime.ModelTime, fn func(interface{}), arg interface{}) des.TimerRef {
	return des.TimerRef{}
}

func newRing(t *testing.T, n, period int) *ring {
	r := &ring{t: t}
	for i := 0; i < n; i++ {
		r.managers = append(r.managers, NewMattern(period))
		r.hosts = append(r.hosts, &fakeHost{r: r, lp: i, lvt: vtime.Infinity})
	}
	return r
}

// drain processes queued control packets until quiet.
func (r *ring) drain() {
	for guard := 0; len(r.queue) > 0; guard++ {
		if guard > 100000 {
			r.t.Fatal("control packets never quiesced")
		}
		pkt := r.queue[0]
		r.queue = r.queue[1:]
		dst := int(pkt.DstNode)
		r.managers[dst].OnControl(r.hosts[dst], pkt)
	}
}

// send models an event message from LP a to LP b, optionally leaving it in
// transit (delivered later with deliver()).
func (r *ring) send(a int, sendTS vtime.VTime) *proto.Packet {
	p := &proto.Packet{Kind: proto.KindEvent, SendTS: sendTS}
	r.managers[a].OnSent(r.hosts[a], p)
	return p
}

func (r *ring) deliver(b int, p *proto.Packet) {
	r.managers[b].OnReceived(r.hosts[b], p)
}

func TestMatternIdleRingComputesInfinity(t *testing.T) {
	r := newRing(t, 4, 10)
	r.managers[0].OnIdle(r.hosts[0])
	r.drain()
	for i, h := range r.hosts {
		if len(h.committed) != 1 || !h.committed[0].IsInf() {
			t.Fatalf("LP %d committed %v, want [inf]", i, h.committed)
		}
	}
	if r.managers[0].Stats.Computations.Value() != 1 {
		t.Fatal("root did not count the computation")
	}
}

func TestMatternBoundsByLVT(t *testing.T) {
	r := newRing(t, 4, 10)
	r.hosts[2].lvt = 37
	r.managers[0].OnIdle(r.hosts[0])
	r.drain()
	for i, h := range r.hosts {
		if len(h.committed) != 1 || h.committed[0] != 37 {
			t.Fatalf("LP %d committed %v, want [37]", i, h.committed)
		}
	}
}

func TestMatternWaitsForTransitMessage(t *testing.T) {
	r := newRing(t, 3, 10)
	// LP1 sends a white message that stays in transit.
	p := r.send(1, 5)
	r.hosts[1].lvt = vtime.Infinity

	// Root initiates; the first circulation must NOT close (white in
	// transit). Process the token hop by hop: after one full drain the
	// message is still unreceived, so no commit may have happened with a
	// value above the transit message's timestamp... deliver the message
	// mid-computation and let the rounds close.
	r.managers[0].OnIdle(r.hosts[0])
	// Run a few hops, then deliver.
	for i := 0; i < 4 && len(r.queue) > 0; i++ {
		pkt := r.queue[0]
		r.queue = r.queue[1:]
		dst := int(pkt.DstNode)
		r.managers[dst].OnControl(r.hosts[dst], pkt)
	}
	r.deliver(2, p)
	r.hosts[2].lvt = 9 // the delivered message produced work at t=9
	r.drain()
	for i, h := range r.hosts {
		if len(h.committed) == 0 {
			t.Fatalf("LP %d committed nothing", i)
		}
		final := h.committed[len(h.committed)-1]
		if final != 9 {
			t.Fatalf("LP %d final GVT %v, want 9", i, final)
		}
	}
	// The computation needed more than one circulation.
	if r.managers[0].Stats.Rounds.Value() < 2 {
		t.Fatalf("rounds = %d, want >= 2", r.managers[0].Stats.Rounds.Value())
	}
}

func TestMatternRedMinBoundsGVT(t *testing.T) {
	r := newRing(t, 3, 10)
	// LP1 has pending work at t=12; physical invariant: an LP only sends
	// at or above its reported LVT.
	r.hosts[1].lvt = 12
	r.managers[0].OnIdle(r.hosts[0])
	// Pop the round-0 token to LP1 and process it; now LP1 is red.
	pkt := r.queue[0]
	r.queue = r.queue[1:]
	r.managers[1].OnControl(r.hosts[1], pkt)
	// LP1 sends a red message at ts 12 after its token visit, then goes
	// idle; GVT must not exceed the red message in transit.
	p := r.send(1, 12)
	r.hosts[1].lvt = vtime.Infinity
	r.drain()
	final := r.hosts[0].committed[len(r.hosts[0].committed)-1]
	if final > 12 {
		t.Fatalf("GVT %v exceeds red send ts 12", final)
	}
	// Deliver so later computations can pass it.
	r.deliver(2, p)
	r.managers[0].OnIdle(r.hosts[0])
	r.drain()
	final = r.hosts[0].committed[len(r.hosts[0].committed)-1]
	if !final.IsInf() {
		t.Fatalf("GVT %v after delivery, want inf", final)
	}
}

func TestMatternPipelinedWaves(t *testing.T) {
	r := newRing(t, 4, 1)
	// Three initiations before any token processing: waves pipeline.
	r.managers[0].sinceGVT = 1
	r.managers[0].OnProcessed(r.hosts[0])
	r.managers[0].sinceGVT = 1
	r.managers[0].OnProcessed(r.hosts[0])
	r.managers[0].sinceGVT = 1
	r.managers[0].OnProcessed(r.hosts[0])
	if r.managers[0].ActiveWaves() != 3 {
		t.Fatalf("active waves = %d, want 3", r.managers[0].ActiveWaves())
	}
	r.drain()
	if got := r.managers[0].Stats.Computations.Value(); got != 3 {
		t.Fatalf("computations = %d, want 3", got)
	}
	if r.managers[0].ActiveWaves() != 0 {
		t.Fatal("waves not retired after completion")
	}
	// GVT commits are monotone.
	prev := vtime.VTime(-1)
	for _, g := range r.hosts[1].committed {
		if g < prev {
			t.Fatalf("GVT went backwards: %v after %v", g, prev)
		}
		prev = g
	}
}

func TestMatternMaxWavesDefersInitiation(t *testing.T) {
	r := newRing(t, 2, 1)
	r.managers[0].MaxWaves = 2
	for i := 0; i < 5; i++ {
		r.managers[0].sinceGVT = 1
		r.managers[0].OnProcessed(r.hosts[0])
	}
	if r.managers[0].ActiveWaves() > 2 {
		t.Fatalf("cap violated: %d waves", r.managers[0].ActiveWaves())
	}
	r.drain()
}

func TestMatternIdleStopsAtInfinity(t *testing.T) {
	r := newRing(t, 2, 10)
	r.managers[0].OnIdle(r.hosts[0])
	r.drain()
	n := r.managers[0].Stats.Computations.Value()
	// Once GVT is infinite, further idle notifications are ignored.
	r.managers[0].OnIdle(r.hosts[0])
	r.drain()
	if r.managers[0].Stats.Computations.Value() != n {
		t.Fatal("idle re-initiated after GVT reached infinity")
	}
}

func TestMatternSingleLP(t *testing.T) {
	r := newRing(t, 1, 10)
	r.hosts[0].lvt = 55
	r.managers[0].OnIdle(r.hosts[0])
	r.drain()
	if len(r.hosts[0].committed) != 1 || r.hosts[0].committed[0] != 55 {
		t.Fatalf("committed %v, want [55]", r.hosts[0].committed)
	}
}

func TestNewMatternValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMattern(0)
}

// hopHost is an allocation-free Host for one LP: it records the last
// control packet sent instead of queueing it.
type hopHost struct {
	lp, n int
	sent  *proto.Packet
}

func (h *hopHost) LP() int                       { return h.lp }
func (h *hopHost) NumLPs() int                   { return h.n }
func (h *hopHost) LVT() vtime.VTime              { return 100 }
func (h *hopHost) OutboundMin() vtime.VTime      { return vtime.Infinity }
func (h *hopHost) CommitGVT(g vtime.VTime)       {}
func (h *hopHost) SendControl(pkt *proto.Packet) { h.sent = pkt }
func (h *hopHost) Shared() *nic.SharedWindow     { return nil }
func (h *hopHost) RingDoorbell()                 {}
func (h *hopHost) Now() vtime.ModelTime          { return 0 }
func (h *hopHost) Schedule(d vtime.ModelTime, fn func(interface{}), arg interface{}) des.TimerRef {
	return des.TimerRef{}
}

// token builds a round-0 token of wave c arriving from the root at LP 1.
func token(c uint32) *proto.Packet {
	return &proto.Packet{Kind: proto.KindGVTControl, SrcNode: 0, DstNode: 1,
		TokenMin: vtime.Infinity, TokenOrigin: 0, TokenEpoch: uint64(c)}
}

func TestMatternForwardsTokenInPlace(t *testing.T) {
	m, h := NewMattern(1), &hopHost{lp: 1, n: 3}
	tok := token(1)
	tok.WireDup = true // the fabric's duplicate arrived first
	m.OnControl(h, tok)
	if h.sent != tok {
		t.Fatal("token was not forwarded in place")
	}
	if tok.SrcNode != 1 || tok.DstNode != 2 || tok.TokenMin != 100 || tok.WireDup {
		t.Fatalf("forwarded token = %+v; want 1->2, min 100, not a wire duplicate", tok)
	}
	ann := &proto.Packet{Kind: proto.KindGVTControl, SrcNode: 0, DstNode: 1,
		TokenRound: -1, TokenGVT: 50, TokenOrigin: 0, TokenEpoch: 1}
	m.OnControl(h, ann)
	if h.sent != ann || ann.DstNode != 2 || m.LastGVT() != 50 || m.ActiveWaves() != 0 {
		t.Fatalf("announcement not committed and forwarded in place: %+v", ann)
	}
}

func TestMatternRootReusesReturningToken(t *testing.T) {
	r := newRing(t, 3, 10)
	r.hosts[2].lvt = 37 // a finite GVT keeps the idle root initiating
	r.managers[0].OnIdle(r.hosts[0])
	first := r.queue[0]
	r.drain()
	// The token came home with a closed cut and went out again as the
	// announcement; once that returned too, the next wave reuses it.
	r.managers[0].OnIdle(r.hosts[0])
	if len(r.queue) != 1 || r.queue[0] != first {
		t.Fatal("next initiation did not reuse the returned announcement")
	}
	r.drain()
}

// TestMatternHoldsOvertakingToken: on a fabric that reorders, a younger
// wave's first visit can overtake an older one's. The LP must process them
// in initiation order, as a FIFO ring would have delivered them.
func TestMatternHoldsOvertakingToken(t *testing.T) {
	m, h := NewMattern(1), &hopHost{lp: 1, n: 3}
	t2, t3, t1 := token(2), token(3), token(1)
	m.OnControl(h, t3)
	m.OnControl(h, t2)
	if h.sent != nil || m.ActiveWaves() != 0 {
		t.Fatal("overtaking tokens were processed before the older wave arrived")
	}
	var order []uint64
	m.OnControl(&orderHost{hopHost: h, order: &order}, t1)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("forwarded waves %v, want [1 2 3]", order)
	}
	if m.ActiveWaves() != 3 {
		t.Fatalf("active waves = %d, want 3", m.ActiveWaves())
	}
}

// orderHost records the wave of every control packet sent.
type orderHost struct {
	*hopHost
	order *[]uint64
}

func (h *orderHost) SendControl(pkt *proto.Packet) { *h.order = append(*h.order, pkt.TokenEpoch) }

// TestMatternForwardZeroAlloc pins the non-root hop: joining a wave,
// folding the visit and forwarding the token, then committing, retiring
// and forwarding the announcement, allocates nothing once the ledger's
// windows have grown.
func TestMatternForwardZeroAlloc(t *testing.T) {
	m, h := NewMattern(1), &hopHost{lp: 1, n: 3}
	ev := &proto.Packet{Kind: proto.KindEvent, SendTS: 7}
	pkt := &proto.Packet{}
	c := uint32(0)
	hop := func() {
		c++
		*pkt = proto.Packet{Kind: proto.KindGVTControl, SrcNode: 0, DstNode: 1,
			TokenMin: vtime.Infinity, TokenOrigin: 0, TokenEpoch: uint64(c)}
		m.OnControl(h, pkt)
		m.OnSent(h, ev)
		m.OnReceived(h, ev)
		if c > 4 {
			*pkt = proto.Packet{Kind: proto.KindGVTControl, SrcNode: 0, DstNode: 1,
				TokenRound: -1, TokenGVT: vtime.VTime(c), TokenOrigin: 0, TokenEpoch: uint64(c - 4)}
			m.OnControl(h, pkt)
		}
	}
	for i := 0; i < 64; i++ {
		hop()
	}
	if a := testing.AllocsPerRun(200, hop); a != 0 {
		t.Fatalf("non-root token hop allocates %.1f times, want 0", a)
	}
}
