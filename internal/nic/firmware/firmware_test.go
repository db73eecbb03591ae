package firmware

import (
	"testing"

	"nicwarp/internal/des"
	"nicwarp/internal/nic"
	"nicwarp/internal/proto"
	"nicwarp/internal/simnet"
	"nicwarp/internal/vtime"
)

// rig assembles NICs with the firmware under test and records host-side
// deliveries and doorbells.
type rig struct {
	eng    *des.Engine
	nics   []*nic.NIC
	toHost [][]*proto.Packet
	bells  [][]nic.NotifyTag
}

func newRig(t *testing.T, n int, fw func(i int) nic.Firmware) *rig {
	t.Helper()
	r := &rig{
		eng:    des.NewEngine(),
		toHost: make([][]*proto.Packet, n),
		bells:  make([][]nic.NotifyTag, n),
	}
	fabric := simnet.NewFabric(simnet.DefaultConfig(), n)
	for i := 0; i < n; i++ {
		i := i
		dev := nic.New(r.eng, i, nic.DefaultConfig(), fabric, fw(i))
		dev.Wire(
			func(p *proto.Packet, done func()) {
				r.toHost[i] = append(r.toHost[i], p)
				done()
			},
			func(tag nic.NotifyTag) { r.bells[i] = append(r.bells[i], tag) },
		)
		r.nics = append(r.nics, dev)
	}
	for _, dev := range r.nics {
		dev.WirePeers(func(node int) *nic.NIC { return r.nics[node] })
	}
	return r
}

func (r *rig) run() { r.eng.Run(vtime.ModelInfinity) }

func ev(src, dst int32, srcObj, dstObj int32, sendTS, recvTS vtime.VTime, id uint64) *proto.Packet {
	return &proto.Packet{
		Kind: proto.KindEvent, SrcNode: src, DstNode: dst,
		SrcObj: srcObj, DstObj: dstObj, SendTS: sendTS, RecvTS: recvTS,
		EventID: id, Seq: 1,
	}
}

func anti(p *proto.Packet) *proto.Packet {
	a := p.Clone()
	a.Kind = proto.KindAnti
	return a
}

// ---- Forwarder / Chain ----

func TestForwarderPassesEverything(t *testing.T) {
	r := newRig(t, 2, func(int) nic.Firmware { return NewForwarder() })
	r.nics[0].HostEnqueue(ev(0, 1, 1, 2, 5, 10, 1))
	r.run()
	if len(r.toHost[1]) != 1 {
		t.Fatalf("delivered %d", len(r.toHost[1]))
	}
}

func TestChainShortCircuits(t *testing.T) {
	cancel := NewCancel()
	gvt := NewGVT()
	c := NewChain(cancel, gvt)
	if c.Name() != "chain(early-cancel+nic-gvt)" {
		t.Fatalf("chain name = %q", c.Name())
	}
	r := newRig(t, 2, func(i int) nic.Firmware {
		if i == 0 {
			return c
		}
		return NewForwarder()
	})
	// A GVT token must be consumed by the gvt element even with the cancel
	// element in front.
	tok := &proto.Packet{Kind: proto.KindGVTToken, SrcNode: 1, DstNode: 0, TokenEpoch: 1, TokenOrigin: 1}
	r.nics[1].HostEnqueue(tok)
	r.run()
	if len(r.toHost[0]) != 0 {
		t.Fatal("token leaked to host")
	}
	if len(r.bells[0]) != 1 || r.bells[0][0] != nic.NotifyGVTControl {
		t.Fatalf("bells = %v", r.bells[0])
	}
}

func TestEmptyChainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewChain()
}

// ---- GVT firmware ----

func TestGVTFirmwareTokenRing(t *testing.T) {
	r := newRig(t, 3, func(int) nic.Firmware { return NewGVT() })
	// Host 0 stages an initiation and supplies its variables by doorbell.
	w := r.nics[0].Shared()
	w.GVTTokenPending = true
	w.ReceivedHostVariables = true
	w.TokenIsInitiation = true
	w.TokenRound = 0
	w.TokenCount = 0
	w.TokenMin = vtime.Infinity
	w.TokenEpoch = 1
	w.TokenOrigin = 0
	w.HostT = 50
	w.HostTMin = vtime.Infinity
	w.HostV = 0
	r.nics[0].Doorbell()
	r.run()
	// The token reached NIC 1, which is now waiting for host variables.
	w1 := r.nics[1].Shared()
	if !w1.GVTTokenPending || !w1.ControlMessagePending {
		t.Fatal("token not pending at NIC 1")
	}
	if len(r.bells[1]) != 1 || r.bells[1][0] != nic.NotifyGVTControl {
		t.Fatalf("NIC 1 bells = %v", r.bells[1])
	}
	// Host 1 answers by doorbell; the token moves to NIC 2.
	w1.ReceivedHostVariables = true
	w1.HostT = 70
	w1.HostTMin = vtime.Infinity
	w1.HostV = 0
	r.nics[1].Doorbell()
	r.run()
	w2 := r.nics[2].Shared()
	if !w2.GVTTokenPending {
		t.Fatal("token did not reach NIC 2")
	}
	// Host 2 answers; token returns to the root with count 0 and the GVT
	// is broadcast: every NIC learns min(50, 70, 90) = 50.
	w2.ReceivedHostVariables = true
	w2.HostT = 90
	w2.HostTMin = vtime.Infinity
	w2.HostV = 0
	r.nics[2].Doorbell()
	r.run()
	// Root's own variables for the returning token.
	if !w.GVTTokenPending {
		t.Fatal("token did not return to the root")
	}
	w.ReceivedHostVariables = true
	w.HostT = 55
	w.HostTMin = vtime.Infinity
	w.HostV = 0
	r.nics[0].Doorbell()
	r.run()
	for i := 0; i < 3; i++ {
		if got := r.nics[i].Shared().LatestGVT; got != 50 {
			t.Fatalf("NIC %d LatestGVT = %v, want 50", i, got)
		}
		last := r.bells[i][len(r.bells[i])-1]
		if last != nic.NotifyGVTValue {
			t.Fatalf("NIC %d last bell = %v", i, last)
		}
	}
	if len(r.toHost[0])+len(r.toHost[1])+len(r.toHost[2]) != 0 {
		t.Fatal("GVT traffic must never cross toward a host")
	}
}

func TestGVTFirmwareWhiteCounting(t *testing.T) {
	r := newRig(t, 2, func(int) nic.Firmware { return NewGVT() })
	// Three white transmits (stamp 0) before any wave.
	for k := 0; k < 3; k++ {
		r.nics[0].HostEnqueue(ev(0, 1, 1, 2, vtime.VTime(k), vtime.VTime(k+1), uint64(k)))
	}
	r.run()
	// Initiation for wave 1: the NIC folds its three white transmits.
	w := r.nics[0].Shared()
	w.GVTTokenPending = true
	w.ReceivedHostVariables = true
	w.TokenIsInitiation = true
	w.TokenEpoch = 1
	w.TokenMin = vtime.Infinity
	w.TokenOrigin = 0
	w.HostT = vtime.Infinity
	w.HostTMin = vtime.Infinity
	w.HostV = 0 // host received none of them (they went to node 1)
	r.nics[0].Doorbell()
	r.run()
	w1 := r.nics[1].Shared()
	if w1.TokenCount != 3 {
		t.Fatalf("token count at NIC 1 = %d, want 3 white transmits", w1.TokenCount)
	}
}

func TestGVTFirmwarePiggybackExtraction(t *testing.T) {
	r := newRig(t, 2, func(int) nic.Firmware { return NewGVT() })
	p := ev(0, 1, 1, 2, 5, 10, 1)
	p.PiggyGVTValid = true
	p.PiggyT = 33
	p.PiggyTMin = 44
	p.PiggyV = 7
	r.nics[0].HostEnqueue(p)
	r.run()
	w := r.nics[0].Shared()
	if !w.ReceivedHostVariables || w.HostT != 33 || w.HostTMin != 44 || w.HostV != 7 {
		t.Fatalf("piggyback not extracted: %+v", w)
	}
	// The piggyback is scrubbed before the packet crosses the wire.
	if len(r.toHost[1]) != 1 || r.toHost[1][0].PiggyGVTValid {
		t.Fatal("piggyback leaked to the destination")
	}
}

// ---- Cancel firmware ----

func TestCancelFirmwareScanDropsErroneousMessages(t *testing.T) {
	r := newRig(t, 2, func(int) nic.Firmware { return NewCancel() })
	// Node 0's object 5 has erroneous output queued: sendTS 120..180.
	for k := 0; k < 4; k++ {
		r.nics[0].HostEnqueue(ev(0, 1, 5, 9, vtime.VTime(120+20*k), vtime.VTime(125+20*k), uint64(10+k)))
	}
	// An anti-message for object 5 with receive timestamp 100 arrives from
	// node 1 (the paper's Figure 3b).
	straggler := &proto.Packet{
		Kind: proto.KindAnti, SrcNode: 1, DstNode: 0,
		SrcObj: 9, DstObj: 5, SendTS: 90, RecvTS: 100, EventID: 77, Seq: 1,
	}
	r.nics[1].HostEnqueue(straggler)
	r.run()
	dropped := r.nics[0].Stats.DroppedInPlace.Value()
	if dropped == 0 {
		t.Fatal("nothing cancelled in place")
	}
	// Anti + surviving events reach node 1's host; dropped ones do not.
	if int64(len(r.toHost[1]))+dropped != 4 {
		t.Fatalf("delivered %d + dropped %d != 4", len(r.toHost[1]), dropped)
	}
	// Every drop is recorded for anti filtering.
	if got := r.nics[0].Shared().Dropped.TotalLen(); int64(got) != dropped {
		t.Fatalf("drop buffer holds %d, want %d", got, dropped)
	}
}

func TestCancelFirmwareFiltersChasingAntis(t *testing.T) {
	r := newRig(t, 2, func(int) nic.Firmware { return NewCancel() })
	p := ev(0, 1, 5, 9, 120, 125, 10)
	q := ev(0, 1, 5, 9, 140, 145, 11)
	r.nics[0].HostEnqueue(p)
	r.nics[0].HostEnqueue(q)
	trigger := &proto.Packet{
		Kind: proto.KindAnti, SrcNode: 1, DstNode: 0,
		SrcObj: 9, DstObj: 5, SendTS: 90, RecvTS: 100, EventID: 77, Seq: 1,
	}
	r.nics[1].HostEnqueue(trigger)
	// The host's chasing anti-messages follow (aggressive cancellation).
	r.nics[0].HostEnqueue(anti(p))
	r.nics[0].HostEnqueue(anti(q))
	r.run()
	drops := r.nics[0].Stats.DroppedInPlace.Value()
	filtered := r.nics[0].Stats.AntisFiltered.Value()
	if filtered != drops {
		t.Fatalf("filtered %d antis for %d drops; pairing must be exact", filtered, drops)
	}
	if r.nics[0].Shared().Dropped.TotalLen() != 0 {
		t.Fatal("drop buffer should be fully consumed")
	}
}

func TestCancelFirmwareRespectsAntiEpoch(t *testing.T) {
	r := newRig(t, 2, func(int) nic.Firmware { return NewCancel() })
	trigger := &proto.Packet{
		Kind: proto.KindAnti, SrcNode: 1, DstNode: 0,
		SrcObj: 9, DstObj: 5, SendTS: 90, RecvTS: 100, EventID: 77, Seq: 1,
	}
	r.nics[1].HostEnqueue(trigger)
	r.run()
	// A message generated AFTER the host processed the anti (piggybacked
	// count 1 >= anti seq 1) is legitimate re-execution output.
	clean := ev(0, 1, 5, 9, 150, 155, 12)
	clean.PiggyAntiEpoch = 1
	r.nics[0].HostEnqueue(clean)
	r.run()
	if r.nics[0].Stats.DroppedInPlace.Value() != 0 {
		t.Fatal("post-rollback output wrongly cancelled")
	}
	if len(r.toHost[1]) != 1 {
		t.Fatal("clean message not delivered")
	}
}

func TestCancelFirmwareSparesGVTPiggyback(t *testing.T) {
	r := newRig(t, 2, func(int) nic.Firmware { return NewCancel() })
	carrier := ev(0, 1, 5, 9, 150, 155, 13)
	carrier.PiggyGVTValid = true
	r.nics[0].HostEnqueue(carrier)
	trigger := &proto.Packet{
		Kind: proto.KindAnti, SrcNode: 1, DstNode: 0,
		SrcObj: 9, DstObj: 5, SendTS: 90, RecvTS: 100, EventID: 77, Seq: 1,
	}
	r.nics[1].HostEnqueue(trigger)
	r.run()
	if r.nics[0].Stats.DroppedInPlace.Value() != 0 {
		t.Fatal("a GVT handshake carrier was dropped")
	}
}

func TestCancelFirmwareCreditRefund(t *testing.T) {
	r := newRig(t, 2, func(int) nic.Firmware { return NewCancel() })
	for k := 0; k < 3; k++ {
		r.nics[0].HostEnqueue(ev(0, 1, 5, 9, vtime.VTime(120+k), vtime.VTime(125+k), uint64(20+k)))
	}
	trigger := &proto.Packet{
		Kind: proto.KindAnti, SrcNode: 1, DstNode: 0,
		SrcObj: 9, DstObj: 5, SendTS: 90, RecvTS: 100, EventID: 77, Seq: 1,
	}
	r.nics[1].HostEnqueue(trigger)
	r.run()
	drops := r.nics[0].Stats.DroppedInPlace.Value()
	if drops == 0 {
		t.Skip("timing did not produce drops")
	}
	var refund int64
	for _, k := range r.nics[0].Shared().CreditRefund {
		refund += k
	}
	if refund != drops {
		t.Fatalf("credit refund %d != drops %d", refund, drops)
	}
	// A refund doorbell was raised.
	found := false
	for _, b := range r.bells[0] {
		if b == nic.NotifyCreditRefund {
			found = true
		}
	}
	if !found {
		t.Fatal("no credit-refund doorbell")
	}
}

func TestCancelFirmwareDropAccountsWhiteBalance(t *testing.T) {
	r := newRig(t, 2, func(int) nic.Firmware { return NewCancel() })
	r.nics[0].Shared().CountDroppedWhite = true
	p := ev(0, 1, 5, 9, 120, 125, 30)
	p.ColorEpoch = 4
	r.nics[0].HostEnqueue(p)
	trigger := &proto.Packet{
		Kind: proto.KindAnti, SrcNode: 1, DstNode: 0,
		SrcObj: 9, DstObj: 5, SendTS: 90, RecvTS: 100, EventID: 77, Seq: 1,
	}
	r.nics[1].HostEnqueue(trigger)
	r.run()
	if r.nics[0].Stats.DroppedInPlace.Value() == 0 {
		t.Skip("timing did not produce a drop")
	}
	if base, counts := r.nics[0].Shared().DroppedWhite.Take(); base != 4 || len(counts) != 1 || counts[0] != 1 {
		t.Fatalf("DroppedWhite.Take() = %d, %v; want 4, [1]", base, counts)
	}
}
