package firmware

import (
	"nicwarp/internal/nic"
	"nicwarp/internal/proto"
	"nicwarp/internal/stats"
	"nicwarp/internal/vtime"
)

// CancelFirmware implements the paper's early message cancellation
// (Section 3.2): when an anti-message passes through the NIC on its way to
// the host, positive messages still waiting in the NIC send queue that the
// imminent rollback is certain to cancel are discarded in place — saving
// their wire transfer, the destination's bus crossings and processing, and
// the rollbacks they would have caused.
//
// Consistency (the paper's central difficulty) is enforced with three
// mechanisms, all from the paper:
//
//  1. The host piggybacks on every outgoing message the count of remote
//     anti-messages it has processed ("the host reports the last received
//     anti-stamp to the NIC by piggybacking ... on all outgoing messages").
//     The NIC numbers the anti-messages it forwards to the host; a queued
//     positive is cancellable against anti k only if it was generated
//     before the host processed k — i.e. its piggybacked count is below k.
//     Messages generated afterwards are legitimate re-execution output.
//
//  2. Dropped event IDs are recorded in the host-shared drop buffer ("for
//     every object on the LP we allocate a buffer ... so that it can be
//     accessed by both the host and the NIC"): the host suppresses the
//     matching anti-message before building it, and the NIC filters
//     anti-messages that were already in flight when their positive was
//     dropped.
//
//  3. Credit-based flow control is repaired: each drop strands one MPICH
//     credit at the sender. The paper recovers it on the receive side ("the
//     NIC keeps track of credit from dropped packets for a particular
//     destination and updates credit information for a packet headed for
//     that destination"), which leaves credit stranded — and the sender's
//     window wedged — when the dropped packet was the last traffic toward
//     that destination. This reproduction refunds the credit at the sender
//     instead: the firmware books it in the shared window and doorbells the
//     host, which returns it to MPICH directly. A dropped packet never
//     occupies receiver buffering, so the sender-side refund is exact.
//
// The drop predicate — same sending object as the anti's destination
// object, send timestamp above the anti's receive timestamp, generated
// before the host processed the anti — is exactly the set of messages the
// host's aggressive cancellation is guaranteed to anti-message, which is
// what keeps the optimization invisible to simulation results.
type CancelFirmware struct {
	entries       []cancelEntry
	antisToHost   uint64 // anti-messages forwarded to the host, in order
	lastHostEpoch uint64 // highest processed-anti count piggybacked by the host

	// Statistics.
	ScansRun        stats.Counter
	ScannedPackets  stats.Counter
	Dropped         stats.Counter // positives cancelled in place
	AntisSuppressed stats.Counter // antis filtered against the drop buffer
	CreditRefunds   stats.Counter // stranded credits refunded to the host
	EntriesExpired  stats.Counter
}

// cancelEntry is one active cancellation window: anti number seq for object
// obj with receive timestamp ts.
type cancelEntry struct {
	obj int32
	ts  vtime.VTime
	seq uint64
}

// NewCancel returns the early-cancellation firmware.
func NewCancel() *CancelFirmware {
	return &CancelFirmware{}
}

// Name implements nic.Firmware.
func (f *CancelFirmware) Name() string { return "early-cancel" }

// OnWireReceive implements nic.Firmware: every inbound anti-message opens a
// cancellation window and triggers a send-queue scan.
func (f *CancelFirmware) OnWireReceive(pkt *proto.Packet, api nic.API) nic.Verdict {
	api.Charge(CyclesHeaderCheck)
	if !pkt.IsAnti() {
		return nic.VerdictForward
	}
	if pkt.WireDup {
		// A fabric-duplicated anti. The host's BIP endpoint will classify
		// and discard it, so it must not be numbered or open a second
		// cancellation window: the consistency handshake counts each anti
		// exactly once on both sides. A real BIP NIC would recognize the
		// duplicate by its sequence number at this same point.
		return nic.VerdictForward
	}
	f.antisToHost++
	e := cancelEntry{obj: pkt.DstObj, ts: pkt.RecvTS, seq: f.antisToHost}
	f.entries = append(f.entries, e)

	// Scan the transmit backlog for messages the rollback will cancel
	// (paper Figure 3(b): the anti with timestamp 100 kills the queued
	// messages with timestamps 102..120).
	queueLen := len(api.SendQueue())
	api.Charge(int64(queueLen) * CyclesQueueScanPerPacket)
	f.ScansRun.Inc()
	f.ScannedPackets.Add(int64(queueLen))
	removed := api.RemoveFromSendQueue(func(p *proto.Packet) bool {
		return p.Kind == proto.KindEvent &&
			!p.PiggyGVTValid && // never lose a GVT handshake in flight
			p.SrcObj == e.obj &&
			p.SendTS > e.ts &&
			p.PiggyAntiEpoch < e.seq
	})
	for _, p := range removed {
		f.recordDrop(api, p)
	}
	if len(removed) > 0 {
		api.Charge(CyclesNotify)
		api.NotifyHost(nic.NotifyCreditRefund)
	}
	return nic.VerdictForward
}

// OnHostSend implements nic.Firmware: apply active cancellation windows to
// outgoing positives, filter anti-messages whose positive was dropped, and
// repair flow-control credit.
func (f *CancelFirmware) OnHostSend(pkt *proto.Packet, api nic.API) nic.Verdict {
	api.Charge(CyclesHeaderCheck)
	if !pkt.IsEventLike() {
		return nic.VerdictForward
	}
	if pkt.PiggyAntiEpoch > f.lastHostEpoch {
		f.lastHostEpoch = pkt.PiggyAntiEpoch
		f.expire()
	}
	switch pkt.Kind {
	case proto.KindEvent:
		// A packet carrying the GVT handshake piggyback is never dropped:
		// discarding it would strand the token on this NIC. Its
		// anti-message cancels it the ordinary way.
		if pkt.PiggyGVTValid {
			break
		}
		for _, e := range f.entries {
			if pkt.SrcObj == e.obj && pkt.SendTS > e.ts && pkt.PiggyAntiEpoch < e.seq {
				api.Charge(CyclesDropRecord + CyclesNotify)
				f.recordDrop(api, pkt)
				api.NotifyHost(nic.NotifyCreditRefund)
				return nic.VerdictDrop
			}
		}
	case proto.KindAnti:
		// An anti whose positive was dropped in place must not travel: the
		// destination never saw the positive.
		if api.Shared().Dropped.Take(pkt.SrcObj, dropKey(pkt)) {
			api.Charge(CyclesDropRecord)
			f.AntisSuppressed.Inc()
			api.Stats().AntisFiltered.Inc()
			f.accountDrop(api, pkt)
			api.Charge(CyclesNotify)
			api.NotifyHost(nic.NotifyCreditRefund)
			return nic.VerdictDrop
		}
	}
	return nic.VerdictForward
}

// OnDoorbell implements nic.Firmware.
func (f *CancelFirmware) OnDoorbell(api nic.API) {}

// dropKey builds the full-identity drop-buffer key for a packet.
func dropKey(p *proto.Packet) nic.DropKey {
	return nic.DropKey{
		ID:      p.EventID,
		Dst:     p.DstObj,
		SendTS:  p.SendTS,
		RecvTS:  p.RecvTS,
		Payload: p.Payload,
	}
}

// recordDrop books a cancelled-in-place positive: drop-buffer entry for
// anti suppression, GVT accounting, credit repair, statistics.
func (f *CancelFirmware) recordDrop(api nic.API, p *proto.Packet) {
	api.Shared().Dropped.Record(p.SrcObj, dropKey(p))
	f.Dropped.Inc()
	api.Stats().DroppedInPlace.Inc()
	f.accountDrop(api, p)
}

// accountDrop handles the bookkeeping shared by dropped positives and
// filtered antis: the GVT white balance and the stranded flow-control
// credit.
func (f *CancelFirmware) accountDrop(api nic.API, p *proto.Packet) {
	w := api.Shared()
	if w.CountDroppedWhite {
		w.DroppedWhite.Add(p.ColorEpoch, 1)
	}
	w.CreditRefund[p.DstNode]++
	w.DropsByDst[p.DstNode]++
	f.CreditRefunds.Inc()
	// Salvage any credit return riding on the dropped packet; the host
	// re-books it as owed to the destination.
	if p.Credits > 0 {
		w.CreditSalvage[p.DstNode] += int64(p.Credits)
	}
}

// expire discards cancellation windows the host has confirmed processing:
// every message generated before the host processed anti k has, by FIFO
// order, already passed this point once a packet with piggybacked count
// >= k is dequeued.
func (f *CancelFirmware) expire() {
	kept := f.entries[:0]
	for _, e := range f.entries {
		if e.seq > f.lastHostEpoch {
			kept = append(kept, e)
		} else {
			f.EntriesExpired.Inc()
		}
	}
	f.entries = kept
}
