package gvt

import (
	"fmt"

	"nicwarp/internal/proto"
	"nicwarp/internal/vtime"
)

// WaveLedger is colour accounting that supports several concurrent GVT
// computations ("waves"), which is how WARPED behaves at aggressive
// GVT_COUNT settings: the root launches a new computation every GVT_COUNT
// events without waiting for the previous wave to complete, so at COUNT=1
// the ring carries a token backlog proportional to the event rate — the
// traffic that "overwhelms the host processor resources" in the paper's
// Figures 4 and 5. (The NIC implementation is inherently single-wave: the
// NIC holds one token until the host handshake completes, which is why its
// round count stays flat in Figure 5b.)
//
// Waves are identified by their epoch number, assigned in initiation order
// by the root. The ring is FIFO, so every LP joins waves in ascending
// order, but an older wave's later rounds may revisit an LP after it has
// joined younger waves — hence per-wave bookkeeping.
//
// The bookkeeping lives in a dense window of wave records indexed by
// c - base, where base (the fold horizon) is the oldest wave still live,
// or epoch+1 when none is. Each record holds:
//
//   - joinSent: cumulative sends when the LP joined the wave. All of them
//     carry stamps below it, so they are white for the wave.
//   - reported: white receives already folded into the wave's token.
//   - segMin: the minimum send timestamp over the sends made while this
//     was the newest joined wave.
//   - joined: joined and not yet retired.
//
// A send is red for every wave joined before it, and joins are ascending,
// so the red minimum of wave c is the minimum of segMin over [c, epoch]:
// OnSend folds into one record and Visit takes the suffix minimum.
// Retiring a wave only clears its joined flag; the window advances past
// the retired prefix, and a retired record above the oldest live wave
// keeps its segMin, because that older wave still needs it.
//
// Receive counts are kept per stamp in a second window over the same
// base; stamps below base can only be white for every live and future
// wave, so they fold into a single bucket as the window advances. No
// operation ranges over a map, and only window growth allocates.
type WaveLedger struct {
	epoch     uint32 // highest wave joined; the outgoing stamp
	sentTotal int64

	// base is the fold horizon: waves[i] is wave base+i and recv[i]
	// counts receives stamped base+i. When waves is non-empty its last
	// record is wave epoch.
	base    uint32
	waves   []waveRec
	recv    []int64
	recvOld int64 // receives stamped below base
	live    int   // joined, unretired waves
}

// waveRec is one wave's record in the ledger window.
type waveRec struct {
	joinSent int64
	reported int64
	segMin   vtime.VTime
	joined   bool
}

// NewWaveLedger returns an empty ledger at epoch zero.
func NewWaveLedger() *WaveLedger { return &WaveLedger{} }

// Epoch returns the outgoing colour stamp (highest wave joined).
func (l *WaveLedger) Epoch() uint32 { return l.epoch }

// OnSend accounts one outgoing event-like packet: stamp it and fold its
// send timestamp into the newest joined wave's segment minimum.
//
//nicwarp:hotpath colour stamp on every outgoing event
func (l *WaveLedger) OnSend(pkt *proto.Packet) {
	pkt.ColorEpoch = l.epoch
	l.sentTotal++
	if k := len(l.waves); k > 0 {
		if r := &l.waves[k-1]; pkt.SendTS < r.segMin {
			r.segMin = pkt.SendTS
		}
	}
}

// OnRecv accounts one inbound event-like packet by stamp.
func (l *WaveLedger) OnRecv(pkt *proto.Packet) {
	l.account(pkt.ColorEpoch, 1)
}

// OnDropped accounts a NIC-cancelled packet as received (see
// Ledger.OnDropped).
func (l *WaveLedger) OnDropped(stamp uint32, n int64) {
	l.account(stamp, n)
}

func (l *WaveLedger) account(stamp uint32, n int64) {
	if stamp < l.base {
		l.recvOld += n
		return
	}
	i := int(stamp - l.base)
	for len(l.recv) <= i {
		l.recv = append(l.recv, 0) //nicwarp:alloc receive-window growth, amortized across the run
	}
	l.recv[i] += n
}

// index returns wave c's position in the window.
func (l *WaveLedger) index(c uint32) (int, bool) {
	if c < l.base || int(c-l.base) >= len(l.waves) {
		return 0, false
	}
	return int(c - l.base), true
}

// Join enters wave c. Waves are numbered from 1 and must be joined in
// ascending order (the FIFO ring guarantees it), and a retired wave cannot
// be joined again; joining an already-joined wave is a no-op.
func (l *WaveLedger) Join(c uint32) {
	if l.Joined(c) {
		return
	}
	if c < l.epoch {
		panic(fmt.Sprintf("gvt: wave %d joined after wave %d (FIFO ring violated)", c, l.epoch))
	}
	if c < l.base+uint32(len(l.waves)) {
		panic(fmt.Sprintf("gvt: wave %d joined again after it retired", c))
	}
	// Waves skipped between the window's end and c get empty records.
	for l.base+uint32(len(l.waves)) < c {
		l.waves = append(l.waves, waveRec{segMin: vtime.Infinity}) //nicwarp:alloc wave-window growth, amortized across the run
	}
	l.waves = append(l.waves, waveRec{joinSent: l.sentTotal, segMin: vtime.Infinity, joined: true}) //nicwarp:alloc wave-window growth, amortized across the run
	l.epoch = c
	l.live++
}

// Joined reports whether wave c has been joined and not yet retired.
func (l *WaveLedger) Joined(c uint32) bool {
	i, ok := l.index(c)
	return ok && l.waves[i].joined
}

// whiteRecv returns cumulative receives with stamp below c (c >= base).
func (l *WaveLedger) whiteRecv(c uint32) int64 {
	n := l.recvOld
	for _, cnt := range l.recv[:min(int(c-l.base), len(l.recv))] {
		n += cnt
	}
	return n
}

// Visit folds this LP's contribution into wave c's token: returns the count
// delta (white sends on first visit, minus unreported white receives) and
// the timestamp floor (min of lvt and the wave's red send minimum).
// firstVisit must be true exactly when the LP joined the wave on this token
// arrival.
//
//nicwarp:hotpath per-token-visit fold, executed on every ring hop of every wave
func (l *WaveLedger) Visit(c uint32, firstVisit bool, lvt vtime.VTime) (countDelta int64, floor vtime.VTime) {
	i, ok := l.index(c)
	if !ok || !l.waves[i].joined {
		panic(fmt.Sprintf("gvt: Visit of unjoined wave %d", c))
	}
	r := &l.waves[i]
	if firstVisit {
		countDelta += r.joinSent
	}
	cur := l.whiteRecv(c)
	countDelta -= cur - r.reported
	r.reported = cur
	floor = lvt
	for j := i; j < len(l.waves); j++ {
		floor = vtime.MinV(floor, l.waves[j].segMin)
	}
	return countDelta, floor
}

// Retire ends wave c's bookkeeping after its computation completes, and
// advances the fold horizon to the oldest wave still live (epoch+1 when
// none is), folding receive stamps no live wave can reference.
//
//nicwarp:hotpath wave retirement, executed once per wave on every LP
func (l *WaveLedger) Retire(c uint32) {
	if i, ok := l.index(c); ok && l.waves[i].joined {
		l.waves[i].joined = false
		l.live--
	}
	next := l.epoch + 1
	if l.live > 0 {
		k := 0
		for !l.waves[k].joined {
			k++
		}
		next = l.base + uint32(k)
	}
	if next <= l.base {
		return
	}
	k := int(next - l.base)
	l.waves = l.waves[:copy(l.waves, l.waves[min(k, len(l.waves)):])]
	f := min(k, len(l.recv))
	for _, cnt := range l.recv[:f] {
		l.recvOld += cnt
	}
	l.recv = l.recv[:copy(l.recv, l.recv[f:])]
	l.base = next
}

// ActiveWaves returns the number of waves with live bookkeeping.
func (l *WaveLedger) ActiveWaves() int { return l.live }
