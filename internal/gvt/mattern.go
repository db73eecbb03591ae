package gvt

import (
	"fmt"

	"nicwarp/internal/nic"
	"nicwarp/internal/proto"
	"nicwarp/internal/vtime"
)

// MatternManager is the host-resident Mattern token-ring GVT algorithm —
// WARPED's default and the baseline the paper's Figures 4 and 5 measure
// NIC-GVT against.
//
// Faithful to WARPED's behaviour at aggressive settings, the root launches
// a new computation every Period processed events *without waiting for the
// previous one to complete*: computations pipeline as concurrent waves on
// the FIFO ring (see WaveLedger). At GVT_COUNT=1 this makes control-message
// volume proportional to the event rate — each wave costs every host a
// dedicated message receive, token rebuild and send — which is exactly the
// regime where the paper's host implementation "breaks down because the
// communication traffic overwhelms the host processor resources" and the
// round counts of Figure 5b grow linearly in 1/GVT_COUNT.
type MatternManager struct {
	// Period is the GVT_COUNT parameter: the root initiates a new
	// computation every Period locally processed events.
	Period int
	// MaxWaves caps concurrently outstanding computations as a safety
	// valve; initiation is deferred (not dropped) at the cap. WARPED has
	// no such cap; 64 is far above what the ring sustains.
	MaxWaves int

	ledger *WaveLedger

	// Root-only state.
	sinceGVT int
	inFlight int
	compSeq  uint32
	lastGVT  vtime.VTime
	spare    *proto.Packet   //nicwarp:owns a returned announcement, reused by the next initiation
	held     []*proto.Packet //nicwarp:owns tokens that overtook an older wave's first visit

	Stats Stats
}

// DefaultMaxWaves bounds concurrent GVT waves.
const DefaultMaxWaves = 64

// NewMattern creates the manager with the given GVT period (GVT_COUNT).
func NewMattern(period int) *MatternManager {
	if period < 1 {
		panic("gvt: Mattern period must be >= 1")
	}
	return &MatternManager{
		Period:   period,
		MaxWaves: DefaultMaxWaves,
		ledger:   NewWaveLedger(),
		lastGVT:  -1,
	}
}

// Name implements Manager.
func (m *MatternManager) Name() string { return "mattern" }

// Start implements Manager: ask the NIC to count the packets it cancels in
// place by colour stamp, for drainNICDrops.
func (m *MatternManager) Start(h Host) {
	if w := h.Shared(); w != nil {
		w.CountDroppedWhite = true
	}
}

// isRoot reports whether this LP initiates computations (LP0, as in the
// paper: "a designated root LP starts off the process").
func (m *MatternManager) isRoot(h Host) bool { return h.LP() == 0 }

// OnProcessed implements Manager: the root counts down the GVT period.
func (m *MatternManager) OnProcessed(h Host) {
	if !m.isRoot(h) {
		return
	}
	m.sinceGVT++
	if m.sinceGVT >= m.Period && m.inFlight < m.MaxWaves {
		m.initiate(h)
	}
}

// OnIdle implements Manager: an idle root keeps GVT (and thus termination
// detection) moving even when fewer than Period events remain.
func (m *MatternManager) OnIdle(h Host) {
	if !m.isRoot(h) || m.inFlight > 0 || m.lastGVT.IsInf() {
		return
	}
	m.initiate(h)
}

// initiate launches wave compSeq+1 at the root.
func (m *MatternManager) initiate(h Host) {
	m.sinceGVT = 0
	m.inFlight++
	m.compSeq++
	c := m.compSeq
	m.ledger.Join(c)
	m.drainNICDrops(h)
	delta, floor := m.ledger.Visit(c, true, h.LVT())
	if h.NumLPs() == 1 {
		// Degenerate ring: the cut closes immediately when nothing is in
		// transit; otherwise re-run on the next initiation.
		if delta == 0 {
			m.finish(h, floor, c, nil)
		} else {
			m.inFlight--
			m.ledger.Retire(c)
		}
		return
	}
	tok := m.spare
	m.spare = nil
	if tok == nil {
		tok = &proto.Packet{}
	}
	*tok = proto.Packet{
		Kind:        proto.KindGVTControl,
		SrcNode:     int32(h.LP()),
		DstNode:     int32(next(h.LP(), h.NumLPs())),
		TokenRound:  0,
		TokenCount:  delta,
		TokenMin:    floor,
		TokenOrigin: int32(h.LP()),
		TokenEpoch:  uint64(c),
	}
	m.Stats.TokenVisits.Inc()
	m.Stats.ControlMsgs.Inc()
	h.SendControl(tok)
}

// OnSent implements Manager: stamp the outgoing packet's colour.
func (m *MatternManager) OnSent(h Host, pkt *proto.Packet) {
	m.ledger.OnSend(pkt)
}

// OnReceived implements Manager: account the inbound packet's colour.
func (m *MatternManager) OnReceived(h Host, pkt *proto.Packet) {
	m.ledger.OnRecv(pkt)
}

// OnControl implements Manager: handle a token or value-announcement visit.
// The manager takes ownership of pkt: a token or announcement is rewritten
// in place and sent on to the next LP, so a hop allocates no packet. The
// cluster hands control packets over only once nothing else references
// them — the NIC receive slot, the host inbox ring and the fault plane
// have all let go (duplicates are separate clones), and the invariant
// checker never retains control packets — and the caller must not read
// pkt after the call.
//
//nicwarp:owns inbound control packets are reused for the next hop
func (m *MatternManager) OnControl(h Host, pkt *proto.Packet) {
	switch {
	case pkt.Kind == proto.KindGVTControl && pkt.TokenRound >= 0:
		m.onToken(h, pkt)
	case pkt.Kind == proto.KindGVTControl && pkt.TokenRound < 0:
		m.onAnnounce(h, pkt)
	default:
		panic(fmt.Sprintf("gvt: mattern got unexpected control packet %v", pkt))
	}
}

// onToken folds this LP's contribution into the token and forwards it, or —
// at the root — decides whether the wave has closed its cut.
//
//nicwarp:owns the token is forwarded, held or becomes the announcement
func (m *MatternManager) onToken(h Host, pkt *proto.Packet) {
	if c := uint32(pkt.TokenEpoch); !m.ledger.Joined(c) && c > m.ledger.Epoch()+1 {
		// A younger wave's first visit overtook an older wave's on a
		// fabric that reorders (the fault plane's retransmissions and
		// delays). Waves first visit every LP in initiation order over
		// a FIFO ring, so hold the token until the older wave arrives.
		m.held = append(m.held, pkt) //nicwarp:alloc reorder hold-back, reached only on a reordering fabric
		return
	}
	m.visit(h, pkt)
	for i := 0; i < len(m.held); i++ {
		if tok := m.held[i]; uint32(tok.TokenEpoch) == m.ledger.Epoch()+1 {
			m.held = append(m.held[:i], m.held[i+1:]...)
			m.visit(h, tok)
			i = -1 // rescan: the visit advanced the epoch
		}
	}
}

// visit is onToken for a token whose wave this LP has joined or is
// joining next.
//
//nicwarp:owns the token is forwarded or becomes the announcement
func (m *MatternManager) visit(h Host, pkt *proto.Packet) {
	m.Stats.TokenVisits.Inc()
	m.drainNICDrops(h)

	c := uint32(pkt.TokenEpoch)
	first := !m.ledger.Joined(c)
	m.ledger.Join(c)
	delta, floor := m.ledger.Visit(c, first, h.LVT())
	count := pkt.TokenCount + delta
	min := vtime.MinV(pkt.TokenMin, floor)

	if int32(h.LP()) == pkt.TokenOrigin {
		m.Stats.Rounds.Inc()
		if count == 0 {
			m.finish(h, min, c, pkt)
			return
		}
		// Whites still in transit: another round.
		m.forward(h, pkt, pkt.TokenRound+1, count, min)
		return
	}
	m.forward(h, pkt, pkt.TokenRound, count, min)
}

// forward sends the token to the next LP on the ring, rewriting the
// inbound packet in place: the manager owns a control packet from
// OnControl on, and no layer below it still references the packet (see
// OnControl).
//
//nicwarp:owns the token is handed on to Host.SendControl
func (m *MatternManager) forward(h Host, pkt *proto.Packet, round int32, count int64, min vtime.VTime) {
	pkt.WireDup = false // a new transmission, whatever copy arrived
	pkt.SrcNode = int32(h.LP())
	pkt.DstNode = int32(next(h.LP(), h.NumLPs()))
	pkt.TokenRound = round
	pkt.TokenCount = count
	pkt.TokenMin = min
	m.Stats.ControlMsgs.Inc()
	h.SendControl(pkt)
}

// finish completes wave c at the root: commit, retire, announce. The
// announcement reuses tok, the wave's returning token (nil on the
// degenerate one-LP ring, which announces nothing).
//
//nicwarp:owns the returning token becomes the announcement
func (m *MatternManager) finish(h Host, g vtime.VTime, c uint32, tok *proto.Packet) {
	m.commit(h, g)
	m.inFlight--
	m.ledger.Retire(c)
	m.Stats.Computations.Inc()
	if h.NumLPs() == 1 {
		return
	}
	*tok = proto.Packet{
		Kind:        proto.KindGVTControl,
		SrcNode:     int32(h.LP()),
		DstNode:     int32(next(h.LP(), h.NumLPs())),
		TokenRound:  -1,
		TokenGVT:    g,
		TokenOrigin: int32(h.LP()),
		TokenEpoch:  uint64(c),
	}
	m.Stats.ControlMsgs.Inc()
	h.SendControl(tok)
}

// onAnnounce commits the announced value, retires the wave, and forwards
// the announcement in place until it returns to the root.
//
//nicwarp:owns the announcement is handed on to Host.SendControl
func (m *MatternManager) onAnnounce(h Host, pkt *proto.Packet) {
	if int32(h.LP()) == pkt.TokenOrigin {
		// The announcement completed the ring; keep the packet for the
		// next initiation.
		m.spare = pkt
		return
	}
	m.commit(h, pkt.TokenGVT)
	m.ledger.Retire(uint32(pkt.TokenEpoch))
	pkt.WireDup = false // a new transmission, whatever copy arrived
	pkt.SrcNode = int32(h.LP())
	pkt.DstNode = int32(next(h.LP(), h.NumLPs()))
	m.Stats.ControlMsgs.Inc()
	h.SendControl(pkt)
}

// commit installs a new GVT value locally. Concurrent waves can complete
// out of GVT order; stale (lower) values are skipped — both are safe lower
// bounds, the larger is simply better.
func (m *MatternManager) commit(h Host, g vtime.VTime) {
	if g <= m.lastGVT {
		return
	}
	m.lastGVT = g
	m.Stats.LastGVT.Set(int64(g))
	h.CommitGVT(g)
}

// LastGVT returns the most recently committed GVT at this LP.
func (m *MatternManager) LastGVT() vtime.VTime { return m.lastGVT }

// ActiveWaves returns the number of computations currently outstanding (at
// the root) or joined (elsewhere).
func (m *MatternManager) ActiveWaves() int { return m.ledger.ActiveWaves() }

// OnNotify implements Manager; the host-resident algorithm uses no NIC
// support.
func (m *MatternManager) OnNotify(h Host, tag nic.NotifyTag) {}

// drainNICDrops folds NIC-reported dropped-packet counts into the ledger.
// Present for the early-cancellation firmware, which must tell the GVT
// subsystem about packets it discarded in place (Start asks the NIC to
// count them). The window drains in ascending stamp order.
func (m *MatternManager) drainNICDrops(h Host) {
	w := h.Shared()
	if w == nil {
		return
	}
	base, counts := w.DroppedWhite.Take()
	for i, n := range counts {
		if n != 0 {
			m.ledger.OnDropped(base+uint32(i), n)
		}
	}
}
