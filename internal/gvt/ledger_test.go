package gvt

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"nicwarp/internal/proto"
	"nicwarp/internal/vtime"
)

func evPkt(sendTS vtime.VTime) *proto.Packet {
	return &proto.Packet{Kind: proto.KindEvent, SendTS: sendTS}
}

func TestLedgerWhiteBalanceSingleWave(t *testing.T) {
	// Two LPs exchange messages; after all whites are received the global
	// balance closes.
	a, b := NewLedger(), NewLedger()
	// Pre-computation traffic: a sends 3 to b, b receives 2 of them.
	var inTransit []*proto.Packet
	for i := 0; i < 3; i++ {
		p := evPkt(vtime.VTime(10 + i))
		a.OnSend(p)
		inTransit = append(inTransit, p)
	}
	b.OnRecv(inTransit[0])
	b.OnRecv(inTransit[1])
	inTransit = inTransit[2:]

	// Computation 1 starts: both join.
	a.Join(1)
	b.Join(1)
	da, _ := NewLedgerVisit(a, 1, true, 100)
	db, _ := NewLedgerVisit(b, 1, true, 200)
	count := da + db
	if count != 1 {
		t.Fatalf("initial balance = %d, want 1 (one white in transit)", count)
	}
	// The last white arrives.
	b.OnRecv(inTransit[0])
	db2, _ := NewLedgerVisit(b, 1, false, 200)
	count += db2
	if count != 0 {
		t.Fatalf("balance after delivery = %d, want 0", count)
	}
}

// NewLedgerVisit adapts the single-wave Ledger to the Visit-style interface
// for tests.
func NewLedgerVisit(l *Ledger, c uint32, first bool, lvt vtime.VTime) (int64, vtime.VTime) {
	var delta int64
	if first {
		delta += l.WhiteSent()
	}
	delta -= l.TakeRecvDelta()
	return delta, vtime.MinV(lvt, l.MinRedSend())
}

func TestLedgerRedMinTracking(t *testing.T) {
	l := NewLedger()
	l.Join(1)
	if l.MinRedSend() != vtime.Infinity {
		t.Fatal("fresh wave must have infinite red min")
	}
	l.OnSend(evPkt(50))
	l.OnSend(evPkt(30))
	l.OnSend(evPkt(70))
	if l.MinRedSend() != 30 {
		t.Fatalf("red min = %v, want 30", l.MinRedSend())
	}
	// Next computation resets the red minimum.
	l.Join(2)
	if l.MinRedSend() != vtime.Infinity {
		t.Fatal("red min must reset on join")
	}
}

func TestLedgerStamps(t *testing.T) {
	l := NewLedger()
	p := evPkt(1)
	l.OnSend(p)
	if p.ColorEpoch != 0 {
		t.Fatalf("stamp = %d, want epoch 0", p.ColorEpoch)
	}
	l.Join(3)
	q := evPkt(2)
	l.OnSend(q)
	if q.ColorEpoch != 3 {
		t.Fatalf("stamp = %d, want epoch 3", q.ColorEpoch)
	}
}

func TestLedgerDroppedCountsAsReceived(t *testing.T) {
	a, b := NewLedger(), NewLedger()
	p := evPkt(5)
	a.OnSend(p)
	a.Join(1)
	b.Join(1)
	da, _ := NewLedgerVisit(a, 1, true, 10)
	db, _ := NewLedgerVisit(b, 1, true, 10)
	if da+db != 1 {
		t.Fatalf("balance = %d", da+db)
	}
	// The NIC drops the packet in place; the sender's ledger accounts it.
	a.OnDropped(p.ColorEpoch, 1)
	da2, _ := NewLedgerVisit(a, 1, false, 10)
	if da+db+da2 != 0 {
		t.Fatal("dropped packet did not close the balance")
	}
}

func TestWaveLedgerConcurrentWaves(t *testing.T) {
	l := NewWaveLedger()
	// Three sends before any wave: white for every wave.
	for i := 0; i < 3; i++ {
		l.OnSend(evPkt(vtime.VTime(i)))
	}
	l.Join(1)
	d1, _ := l.Visit(1, true, 100)
	if d1 != 3 {
		t.Fatalf("wave 1 first visit delta = %d, want 3", d1)
	}
	// Two more sends: white for wave 2, red for wave 1.
	l.OnSend(evPkt(40))
	l.OnSend(evPkt(20))
	l.Join(2)
	d2, floor2 := l.Visit(2, true, 100)
	if d2 != 5 {
		t.Fatalf("wave 2 first visit delta = %d, want 5", d2)
	}
	if floor2 != 100 {
		t.Fatalf("wave 2 floor = %v (red min must reset per wave)", floor2)
	}
	// Wave 1 revisit folds its red minimum (20 < lvt).
	_, floor1 := l.Visit(1, false, 100)
	if floor1 != 20 {
		t.Fatalf("wave 1 floor = %v, want 20", floor1)
	}
	if l.ActiveWaves() != 2 {
		t.Fatalf("active waves = %d", l.ActiveWaves())
	}
	l.Retire(1)
	l.Retire(2)
	if l.ActiveWaves() != 0 {
		t.Fatal("waves not retired")
	}
}

func TestWaveLedgerRecvAccounting(t *testing.T) {
	l := NewWaveLedger()
	white := evPkt(1) // stamp 0
	l.Join(1)
	l.OnRecv(white) // white wrt wave 1
	d, _ := l.Visit(1, true, 10)
	if d != -1 {
		t.Fatalf("delta = %d, want -1 (one white received, none sent)", d)
	}
	// Delta consumed; next visit reports nothing new.
	d2, _ := l.Visit(1, false, 10)
	if d2 != 0 {
		t.Fatalf("second delta = %d, want 0", d2)
	}
}

func TestWaveLedgerFoldAfterRetire(t *testing.T) {
	l := NewWaveLedger()
	l.Join(1)
	l.OnRecv(evPkt(1)) // stamp 0
	l.Visit(1, true, 10)
	l.Retire(1)
	// A straggler with an ancient stamp arrives after the fold horizon
	// moved; it must still count as white for the next wave.
	old := evPkt(2)
	old.ColorEpoch = 0
	l.OnRecv(old)
	l.Join(2)
	d, _ := l.Visit(2, true, 10)
	if d != -2 {
		t.Fatalf("delta = %d, want -2 (both old receives white for wave 2)", d)
	}
}

func TestWaveLedgerJoinValidation(t *testing.T) {
	l := NewWaveLedger()
	l.Join(2)
	l.Join(2) // no-op
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-order join")
		}
	}()
	l.Join(1)
}

func TestWaveLedgerVisitUnjoinedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWaveLedger().Visit(5, true, 0)
}

// TestWaveLedgerBalanceProperty: for a random message pattern between two
// LPs and any wave join points, once every sent message is received the
// accumulated wave balance is zero.
func TestWaveLedgerBalanceProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		a, b := NewWaveLedger(), NewWaveLedger()
		var transit []*proto.Packet
		wave := uint32(0)
		total := int64(0)
		visited := false
		for _, op := range ops {
			switch op % 4 {
			case 0: // a sends
				p := evPkt(vtime.VTime(op))
				a.OnSend(p)
				transit = append(transit, p)
			case 1: // b receives oldest
				if len(transit) > 0 {
					b.OnRecv(transit[0])
					transit = transit[1:]
				}
			case 2: // start a new wave: both join and first-visit
				if visited {
					continue // one wave at a time in this property
				}
				wave++
				a.Join(wave)
				b.Join(wave)
				da, _ := a.Visit(wave, true, 1)
				db, _ := b.Visit(wave, true, 1)
				total = da + db
				visited = true
			case 3: // revisit: fold deltas
				if visited {
					da, _ := a.Visit(wave, false, 1)
					db, _ := b.Visit(wave, false, 1)
					total += da + db
				}
			}
		}
		if !visited {
			return true
		}
		// Drain all in-transit messages and fold the final deltas: the
		// balance must close.
		for _, p := range transit {
			b.OnRecv(p)
		}
		da, _ := a.Visit(wave, false, 1)
		db, _ := b.Visit(wave, false, 1)
		total += da + db
		return total == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refWaveLedger is the original map-keyed WaveLedger, kept as the
// reference model for the dense-window implementation: every operation
// walks the per-wave maps, which is obviously correct and O(live waves)
// per send.
type refWaveLedger struct {
	epoch     uint32
	sentTotal int64

	recvOld     int64
	recvByStamp map[uint32]int64
	oldestLive  uint32

	joinSent map[uint32]int64
	reported map[uint32]int64
	minRed   map[uint32]vtime.VTime
}

func newRefWaveLedger() *refWaveLedger {
	return &refWaveLedger{
		recvByStamp: make(map[uint32]int64),
		joinSent:    make(map[uint32]int64),
		reported:    make(map[uint32]int64),
		minRed:      make(map[uint32]vtime.VTime),
	}
}

func (l *refWaveLedger) OnSend(pkt *proto.Packet) {
	pkt.ColorEpoch = l.epoch
	l.sentTotal++
	//nicwarp:ordered commutative fold: per-wave min over an order-free set
	for c, m := range l.minRed {
		if pkt.SendTS < m {
			l.minRed[c] = pkt.SendTS
		}
	}
}

func (l *refWaveLedger) account(stamp uint32, n int64) {
	if stamp < l.oldestLive {
		l.recvOld += n
	} else {
		l.recvByStamp[stamp] += n
	}
}

func (l *refWaveLedger) Join(c uint32) {
	if l.Joined(c) {
		return
	}
	if c < l.epoch {
		panic("ref: out-of-order join")
	}
	l.epoch = c
	l.joinSent[c] = l.sentTotal
	l.reported[c] = 0
	l.minRed[c] = vtime.Infinity
}

func (l *refWaveLedger) Joined(c uint32) bool {
	_, ok := l.joinSent[c]
	return ok
}

func (l *refWaveLedger) whiteRecv(c uint32) int64 {
	n := l.recvOld
	//nicwarp:ordered commutative fold: sums counters below the horizon
	for s, cnt := range l.recvByStamp {
		if s < c {
			n += cnt
		}
	}
	return n
}

func (l *refWaveLedger) Visit(c uint32, firstVisit bool, lvt vtime.VTime) (int64, vtime.VTime) {
	var delta int64
	if firstVisit {
		delta += l.joinSent[c]
	}
	cur := l.whiteRecv(c)
	delta -= cur - l.reported[c]
	l.reported[c] = cur
	return delta, vtime.MinV(lvt, l.minRed[c])
}

func (l *refWaveLedger) Retire(c uint32) {
	delete(l.joinSent, c)
	delete(l.reported, c)
	delete(l.minRed, c)
	oldest := l.epoch + 1
	//nicwarp:ordered commutative fold: min over live wave numbers
	for w := range l.joinSent {
		if w < oldest {
			oldest = w
		}
	}
	if oldest > l.oldestLive {
		l.oldestLive = oldest
		//nicwarp:ordered commutative fold: sums counters and deletes folded keys
		for s, cnt := range l.recvByStamp {
			if s < l.oldestLive {
				l.recvOld += cnt
				delete(l.recvByStamp, s)
			}
		}
	}
}

// ledgerOp is one random step of the differential test. Field meanings
// depend on Op (see TestWaveLedgerMatchesReference).
type ledgerOp struct {
	Op  uint8
	Arg uint8
	TS  int16
}

// TestWaveLedgerMatchesReference drives the dense-window ledger and the
// map-keyed reference with the same random operations — sends, receives
// stamped below, at and above the local epoch, NIC drops with ancient
// stamps, joins with gaps, visits and out-of-order retirement with up to
// DefaultMaxWaves live waves — and requires identical Visit results,
// Joined and ActiveWaves after every step.
func TestWaveLedgerMatchesReference(t *testing.T) {
	maxLive := 0
	f := func(ops []ledgerOp) bool {
		got, want := NewWaveLedger(), newRefWaveLedger()
		var live []uint32 // joined, unretired waves, ascending
		check := func(step int) bool {
			if got.ActiveWaves() != len(want.joinSent) {
				t.Logf("step %d: ActiveWaves %d, reference %d", step, got.ActiveWaves(), len(want.joinSent))
				return false
			}
			if got.Epoch() != want.epoch {
				t.Logf("step %d: Epoch %d, reference %d", step, got.Epoch(), want.epoch)
				return false
			}
			for c := uint32(0); c <= want.epoch+2; c++ {
				if got.Joined(c) != want.Joined(c) {
					t.Logf("step %d: Joined(%d) = %v, reference %v", step, c, got.Joined(c), want.Joined(c))
					return false
				}
			}
			return true
		}
		for step, op := range ops {
			switch op.Op % 16 {
			case 0, 1, 2, 3, 4: // send
				p, q := evPkt(vtime.VTime(op.TS)), evPkt(vtime.VTime(op.TS))
				got.OnSend(p)
				want.OnSend(q)
				if p.ColorEpoch != q.ColorEpoch {
					t.Logf("step %d: stamp %d, reference %d", step, p.ColorEpoch, q.ColorEpoch)
					return false
				}
			case 5, 6: // receive stamped around the local epoch (below, at, above)
				stamp := int64(want.epoch) + int64(op.Arg%8) - 4
				if stamp < 0 {
					stamp = 0
				}
				p := evPkt(0)
				p.ColorEpoch = uint32(stamp)
				got.OnRecv(p)
				want.account(p.ColorEpoch, 1)
			case 7: // NIC drop report, often with an ancient stamp
				stamp := uint32(op.Arg) % (want.epoch + 1)
				n := int64(op.Arg%3) + 1
				got.OnDropped(stamp, n)
				want.account(stamp, n)
			case 8, 9, 10: // join the next wave, possibly skipping a few
				if len(live) >= DefaultMaxWaves {
					continue
				}
				c := want.epoch + 1 + uint32(op.Arg%3)
				got.Join(c)
				want.Join(c)
				live = append(live, c)
				maxLive = max(maxLive, len(live))
				// The join's own first visit, as the Mattern manager does.
				dg, fg := got.Visit(c, true, vtime.VTime(op.TS))
				dw, fw := want.Visit(c, true, vtime.VTime(op.TS))
				if dg != dw || fg != fw {
					t.Logf("step %d: first Visit(%d) = (%d, %v), reference (%d, %v)", step, c, dg, fg, dw, fw)
					return false
				}
			case 11, 12: // revisit a live wave
				if len(live) == 0 {
					continue
				}
				c := live[int(op.Arg)%len(live)]
				got.Join(c) // no-op on a joined wave
				want.Join(c)
				dg, fg := got.Visit(c, false, vtime.VTime(op.TS))
				dw, fw := want.Visit(c, false, vtime.VTime(op.TS))
				if dg != dw || fg != fw {
					t.Logf("step %d: Visit(%d) = (%d, %v), reference (%d, %v)", step, c, dg, fg, dw, fw)
					return false
				}
			case 13: // retire a live wave, in any order
				if len(live) == 0 {
					continue
				}
				i := int(op.Arg) % len(live)
				c := live[i]
				live = append(live[:i], live[i+1:]...)
				got.Retire(c)
				want.Retire(c)
			case 14, 15: // retire a wave that is not live (a no-op bar the horizon)
				c := uint32(op.Arg) % (want.epoch + 3)
				if want.Joined(c) {
					continue
				}
				got.Retire(c)
				want.Retire(c)
			}
			if !check(step) {
				return false
			}
		}
		return true
	}
	// Long operation lists, so the live-wave count reaches the cap.
	long := func(args []reflect.Value, r *rand.Rand) {
		ops := make([]ledgerOp, r.Intn(1200))
		for i := range ops {
			ops[i] = ledgerOp{Op: uint8(r.Intn(256)), Arg: uint8(r.Intn(256)), TS: int16(r.Intn(1 << 16))}
		}
		args[0] = reflect.ValueOf(ops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Values: long}); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	if maxLive < DefaultMaxWaves {
		t.Fatalf("at most %d waves were live at once, want runs reaching %d", maxLive, DefaultMaxWaves)
	}
}

func TestWaveLedgerRejoinAfterRetirePanics(t *testing.T) {
	l := NewWaveLedger()
	l.Join(1)
	l.Retire(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for re-joining a retired wave")
		}
	}()
	l.Join(1)
}

// TestWaveLedgerZeroAlloc pins the steady-state contract: once the windows
// have grown, sends, receives, visits and retirements allocate nothing.
func TestWaveLedgerZeroAlloc(t *testing.T) {
	l := NewWaveLedger()
	p := evPkt(5)
	c := uint32(0)
	step := func() {
		c++
		l.Join(c)
		l.Visit(c, true, 10)
		for i := 0; i < 4; i++ {
			l.OnSend(p)
			l.OnRecv(p)
		}
		if c > 8 {
			l.Visit(c-4, false, 10)
			l.Retire(c - 8)
		}
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if a := testing.AllocsPerRun(200, step); a != 0 {
		t.Fatalf("steady-state ledger step allocates %.1f times, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		l.OnSend(p)
		l.OnRecv(p)
		l.Visit(c, false, 10)
	}); a != 0 {
		t.Fatalf("OnSend/OnRecv/Visit allocate %.1f times, want 0", a)
	}
}
