package nic

import (
	"nicwarp/internal/stats"
	"nicwarp/internal/vtime"
)

// SharedWindow is the "global buffer shared between the host and the NIC"
// through which the paper's host and firmware halves exchange state. It is
// passive memory: the cost of touching it is charged by whichever side
// performs the access (host SharedWrite cost, NIC cycles).
//
// Field names follow the paper's variable names where it gives them
// (TimewarpInitialised, GvtTokenPending, ControlMessagePending,
// ReceivedHostVariables, V, T, Tmin).
type SharedWindow struct {
	// Rank is the LP rank the host reported at initialization ("initially,
	// each LP reports its rank to the NIC through the global buffer").
	Rank int
	// TimewarpInitialized is set once the host stack is up and Rank valid.
	TimewarpInitialized bool

	// ---- NIC-level GVT handshake state ----

	// GVTTokenPending: a GVT computation is in progress at this NIC.
	GVTTokenPending bool
	// ControlMessagePending: a GVT token was received by the NIC and
	// reported to the host for processing; the NIC is waiting for the host
	// variables.
	ControlMessagePending bool
	// ReceivedHostVariables: the host has processed the pending control
	// message and its (T, Tmin, V) values came off the last outgoing
	// message or doorbell.
	ReceivedHostVariables bool
	// HostT, HostTMin, HostV are the host-reported Mattern variables.
	HostT    vtime.VTime
	HostTMin vtime.VTime
	HostV    int64
	// TokenRound/TokenCount/TokenMin/TokenEpoch/TokenOrigin hold the
	// in-progress token while the NIC waits for the host variables.
	TokenRound  int32
	TokenCount  int64
	TokenMin    vtime.VTime
	TokenEpoch  uint64
	TokenOrigin int32
	// TokenIsInitiation distinguishes a root initiation request staged by
	// the host from a token received off the wire (both wait for host
	// variables in the same fields).
	TokenIsInitiation bool
	// LatestGVT is the most recent GVT value the NIC learned; the host
	// reads it after a NotifyGVTValue doorbell.
	LatestGVT vtime.VTime

	// ---- Early-cancellation state ----

	// Dropped records event IDs of positives the NIC cancelled in place,
	// keyed by sending object, "a buffer of size 10 ... declared in the
	// global structures of the NIC, so that it can be accessed by both the
	// host and the NIC".
	Dropped *DropBuffer
	// HostAntiEpoch mirrors the host's count of processed anti-messages;
	// the host piggybacks it on outgoing messages and the firmware keeps
	// the latest value here.
	HostAntiEpoch uint64
	// DroppedWhite counts packets the NIC cancelled in place, by colour
	// stamp, while CountDroppedWhite is set. The host Mattern manager,
	// which counts sends on the host, sets the flag and drains the window
	// into its ledger: a dropped message must count as received or the
	// white balance never closes. The NIC-resident GVT implementations
	// never read it and leave the flag clear, so nothing accumulates.
	DroppedWhite      StampCounts
	CountDroppedWhite bool
	// CreditSalvage counts flow-control credits that were piggybacked on a
	// dropped packet as returned credit for its destination; the host
	// re-books them as owed so they are returned again by later traffic or
	// an explicit credit message. Without salvage, every dropped packet
	// that happened to carry a credit return would destroy those credits
	// and eventually wedge the peer's window.
	CreditSalvage map[int32]int64
	// CreditRefund counts flow-control credits stranded by in-place drops,
	// per destination node. The host drains it into MPICH after a
	// NotifyCreditRefund doorbell: a dropped packet occupies no receiver
	// buffer, so its credit is returned directly at the sender. (The
	// paper's receiver-side estimate repair leaves credit stranded when a
	// dropped packet is the last traffic to its destination, which
	// deadlocks the sender's window.)
	CreditRefund map[int32]int64
	// DropsByDst is the permanent per-destination count of packets this
	// NIC deliberately discarded (cancelled positives and suppressed
	// antis). Unlike the maps above it is never drained: it is the
	// sender-side ground truth the invariant checker reconciles against
	// the receiver's BIP sequence gaps — every permanent hole in a
	// destination's sequence space must be attributable to exactly these
	// drops.
	DropsByDst map[int32]int64
}

// NewSharedWindow returns a window with the paper's default drop-buffer
// capacity.
func NewSharedWindow() *SharedWindow {
	return &SharedWindow{
		LatestGVT:     -1,
		HostTMin:      vtime.Infinity,
		Dropped:       NewDropBuffer(DefaultDropBufferCap),
		CreditRefund:  make(map[int32]int64),
		CreditSalvage: make(map[int32]int64),
		DropsByDst:    make(map[int32]int64),
	}
}

// StampCounts is a dense count window keyed by colour stamp: one counter
// per stamp from the lowest stamp added since the last Take. Stamps are
// GVT epochs, so a window between drains spans the few waves in flight.
type StampCounts struct {
	base   uint32
	counts []int64
}

// Add counts n at stamp.
func (s *StampCounts) Add(stamp uint32, n int64) {
	if len(s.counts) == 0 {
		s.base = stamp
	}
	if stamp < s.base {
		// An older stamp than any pending: shift the window down.
		d := int(s.base - stamp)
		for i := 0; i < d; i++ {
			s.counts = append(s.counts, 0) //nicwarp:alloc window growth, amortized across the run
		}
		copy(s.counts[d:], s.counts)
		clear(s.counts[:d])
		s.base = stamp
	}
	i := int(stamp - s.base)
	for len(s.counts) <= i {
		s.counts = append(s.counts, 0) //nicwarp:alloc window growth, amortized across the run
	}
	s.counts[i] += n
}

// Take empties the window and returns what it held: counts[i] is the
// count at stamp base+i, in ascending stamp order (zero for stamps with
// nothing pending). The slice is valid until the next Add.
func (s *StampCounts) Take() (base uint32, counts []int64) {
	base, counts = s.base, s.counts
	s.counts = s.counts[:0]
	return base, counts
}

// DefaultDropBufferCap sizes the per-object dropped-ID buffer. The paper
// allocates 10 entries per object; under bursty cancellation that
// overflows, evicted records let anti-messages for dropped positives
// escape filtering, and the destination is left with an orphan
// anti-message — a silent correctness hazard the paper does not discuss.
// The reproduction defaults to a size that makes eviction practically
// impossible and exposes the paper's value through the DropBufferCap
// configuration (see the drop-buffer ablation).
const DefaultDropBufferCap = 256

// PaperDropBufferCap is the buffer size the paper uses.
const PaperDropBufferCap = 10

// DropKey identifies a dropped message precisely. The paper records "the
// event-Id's of all dropped messages"; the reproduction keys on the full
// message identity because event IDs are reused across rollback
// incarnations — a re-executed object reassigns the same sequence numbers,
// and suppressing an anti-message for the wrong incarnation (same ID,
// different destination or content) would leave a live positive
// uncancelled and corrupt results.
type DropKey struct {
	ID      uint64
	Dst     int32
	SendTS  vtime.VTime
	RecvTS  vtime.VTime
	Payload uint64
}

// DropBuffer records the identities of positive messages cancelled in place
// on the NIC, per sending object. The host consults it to suppress the
// corresponding anti-messages; the NIC consults it to filter anti-messages
// that were already in flight toward the NIC when the positive was dropped.
//
// Entries are one-shot: a successful Take removes the entry, since exactly
// one anti-message per dropped positive must be suppressed or filtered.
//
// The buffer is bounded per object (10 in the paper). When full, the oldest
// entry is evicted and counted in Evictions — an eviction means a dropped
// positive whose anti-message can no longer be matched, which the kernel
// then tolerates through its unmatched-negative path.
type DropBuffer struct {
	cap   int
	byObj map[int32][]DropKey

	Records   stats.Counter
	Takes     stats.Counter
	Misses    stats.Counter
	Evictions stats.Counter
}

// NewDropBuffer creates a buffer with the given per-object capacity.
func NewDropBuffer(capPerObj int) *DropBuffer {
	if capPerObj <= 0 {
		panic("nic: drop buffer capacity must be positive")
	}
	return &DropBuffer{cap: capPerObj, byObj: make(map[int32][]DropKey)}
}

// Cap returns the per-object capacity.
func (b *DropBuffer) Cap() int { return b.cap }

// Record stores a dropped message identity for obj, evicting the oldest
// entry if the object's ring is full.
func (b *DropBuffer) Record(obj int32, key DropKey) {
	b.Records.Inc()
	q := b.byObj[obj]
	if len(q) >= b.cap {
		q = q[1:]
		b.Evictions.Inc()
	}
	b.byObj[obj] = append(q, key)
}

// Contains reports whether key is recorded for obj without consuming it.
func (b *DropBuffer) Contains(obj int32, key DropKey) bool {
	for _, v := range b.byObj[obj] {
		if v == key {
			return true
		}
	}
	return false
}

// Take consumes the entry (obj, key) and reports whether it was present.
func (b *DropBuffer) Take(obj int32, key DropKey) bool {
	q := b.byObj[obj]
	for i, v := range q {
		if v == key {
			b.byObj[obj] = append(q[:i:i], q[i+1:]...)
			b.Takes.Inc()
			return true
		}
	}
	b.Misses.Inc()
	return false
}

// Len returns the number of recorded IDs for obj.
func (b *DropBuffer) Len(obj int32) int { return len(b.byObj[obj]) }

// TotalLen returns the number of recorded IDs across all objects.
func (b *DropBuffer) TotalLen() int {
	n := 0
	//nicwarp:ordered commutative fold: sums lengths, order-free
	for _, q := range b.byObj {
		n += len(q)
	}
	return n
}
