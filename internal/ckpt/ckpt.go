// Package ckpt holds the checkpoint/restart state machine's data layer: a
// per-rank Snapshot of everything a wavefront rank needs to resume from a
// cut point, a checksum sealing it, and two Store implementations — an
// in-memory store with pooled per-rank slots (the default: restart is an
// in-process affair) and a file-backed store layered on the same encoding
// (crash-stop durability, used by tests and the CLI's file mode).
//
// The runtime cuts only between operations and between the tiles of a
// wavefront sweep (internal/pipeline/ckpt.go says why those are safe):
// mid-tile, a rank's portion mixes updated and stale elements and the
// inbound halo cursor does not correspond to any prefix of the send
// sequence, so no consistent global state exists to restore. At a cut
// point, the local fields plus the link cursors plus the scalar environment
// are the complete rank state — the proof is the restart path itself,
// which resumes bit-identically.
package ckpt

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// FieldSnap is one local field captured at a cut point.
type FieldSnap struct {
	// Name is the array's program name.
	Name string
	// Layout is the field's memory layout code (field.Layout, kept as an
	// int so ckpt does not import the field package).
	Layout int
	// Dims is the field's bounds as lo,hi pairs, flattened.
	Dims []int
	// Data is the raw element storage.
	Data []float64
}

// Snapshot is one rank's complete resumable state at a cut point.
// Stores deep-copy on Save and are done with the caller's snapshot when
// Save returns, so a caller may reuse its snapshot scratch across waves
// and may point FieldSnap.Data straight at live array storage, provided
// nothing writes that storage while Save runs.
type Snapshot struct {
	// Rank owns the snapshot; Wave is the 1-based wavefront sweep the cut
	// lies inside or before (everything before the cut is captured); Seq
	// orders snapshots per rank.
	Rank, Wave int
	Seq        int64
	// RecvCursor[p] is the consumed count on the p→rank link at the
	// boundary; SendCursor[p] the enqueued count on rank→p. These key the
	// comm layer's replay and suppression on restart.
	RecvCursor, SendCursor []int64
	// Ints is scheduler-specific integer state (op counters, tile cursors).
	Ints []int64
	// Names and Vals are scheduler-specific named float state (scalar
	// environments, reduction logs), parallel slices.
	Names []string
	Vals  []float64
	// Fields are the portion arrays.
	Fields []FieldSnap
	// Checksum seals everything above (the word-wise hash below, over the
	// canonical encoding). Save computes it; Latest verifies it.
	Checksum uint64
}

// Store persists per-rank snapshots. Implementations must be safe for
// concurrent use by rank goroutines: each rank saves only its own slot,
// but restore and cursor lookup cross ranks, so every slot is guarded by
// its own lock — ranks saving different slots do not wait for each other.
type Store interface {
	// Save persists a deep copy of s as rank s.Rank's latest snapshot,
	// stamping s.Seq and s.Checksum. The caller keeps ownership of s and
	// may mutate it afterwards.
	Save(s *Snapshot) error
	// Latest returns rank's most recent snapshot, (nil, nil) when none has
	// been saved. The returned snapshot is valid until the rank's next
	// Save; callers must not mutate it.
	Latest(rank int) (*Snapshot, error)
	// Close releases the store's resources.
	Close() error
}

// ErrChecksum reports a snapshot whose seal does not match its contents.
var ErrChecksum = errors.New("ckpt: snapshot checksum mismatch")

// The seal is a 64-bit word-at-a-time hash built from xxHash64's rounds:
// every 64-bit word of the canonical encoding goes through a
// multiply-rotate-multiply round before it is mixed in, so a flipped bit
// anywhere in a word — the sign bit included — changes about half the
// state bits, and flips in neighbouring words cannot cancel the way they do
// under a word-wise FNV, whose multiply only carries upwards. Element data
// runs through four independent lanes, 32 bytes per step, which is what
// lets a 50k-element portion be sealed in tens of microseconds. Stable
// across processes (no map iteration, no pointers); it is an integrity
// check against torn or rotted state, not a defence against an adversary.
const (
	prime1 = 0x9E3779B185EBCA87
	prime2 = 0xC2B2AE3D27D4EB4F
	prime3 = 0x165667B19E3779F9
	prime4 = 0x85EBCA77C2B2AE63
)

func round(acc, w uint64) uint64 {
	return bits.RotateLeft64(acc+w*prime2, 31) * prime1
}

type hasher uint64

func newHasher() hasher { return prime3 }

func (h *hasher) u64(v uint64) {
	*h = hasher(bits.RotateLeft64(uint64(*h)^round(0, v), 27)*prime1 + prime4)
}

func (h *hasher) i64(v int64) { h.u64(uint64(v)) }

func (h *hasher) i64s(vs []int64) {
	h.u64(uint64(len(vs)))
	for _, v := range vs {
		h.u64(uint64(v))
	}
}

// str hashes the length, then the bytes packed little-endian into words
// (the length disambiguates the zero padding of the last word).
func (h *hasher) str(s string) {
	h.u64(uint64(len(s)))
	var w uint64
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (8 * (i % 8))
		if i%8 == 7 || i == len(s)-1 {
			h.u64(w)
			w = 0
		}
	}
}

func (h *hasher) f64s(vs []float64) {
	h.u64(uint64(len(vs)))
	if len(vs) >= 4 {
		seed := uint64(*h)
		v1, v2, v3, v4 := seed+prime1+prime2, seed+prime2, seed, seed-prime1
		for ; len(vs) >= 4; vs = vs[4:] {
			v1 = round(v1, math.Float64bits(vs[0]))
			v2 = round(v2, math.Float64bits(vs[1]))
			v3 = round(v3, math.Float64bits(vs[2]))
			v4 = round(v4, math.Float64bits(vs[3]))
		}
		acc := bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		for _, v := range [4]uint64{v1, v2, v3, v4} {
			acc = (acc^round(0, v))*prime1 + prime4
		}
		*h = hasher(acc)
	}
	for _, v := range vs {
		h.u64(math.Float64bits(v))
	}
}

// sum finishes the hash with xxHash64's avalanche.
func (h hasher) sum() uint64 {
	x := uint64(h)
	x ^= x >> 33
	x *= prime2
	x ^= x >> 29
	x *= prime3
	x ^= x >> 32
	return x
}

// checksum computes the snapshot's seal over every field except Checksum.
func checksum(s *Snapshot) uint64 {
	h := newHasher()
	h.i64(int64(s.Rank))
	h.i64(int64(s.Wave))
	h.i64(s.Seq)
	h.i64s(s.RecvCursor)
	h.i64s(s.SendCursor)
	h.i64s(s.Ints)
	h.u64(uint64(len(s.Names)))
	for _, n := range s.Names {
		h.str(n)
	}
	h.f64s(s.Vals)
	h.u64(uint64(len(s.Fields)))
	for i := range s.Fields {
		f := &s.Fields[i]
		h.str(f.Name)
		h.i64(int64(f.Layout))
		h.u64(uint64(len(f.Dims)))
		for _, d := range f.Dims {
			h.i64(int64(d))
		}
		h.f64s(f.Data)
	}
	return h.sum()
}

// verify re-computes a stored snapshot's seal.
func verify(s *Snapshot) error {
	if checksum(s) != s.Checksum {
		return fmt.Errorf("%w (rank %d seq %d)", ErrChecksum, s.Rank, s.Seq)
	}
	return nil
}

// copyInto deep-copies src into dst, reusing dst's backing storage where
// capacities allow — the per-rank slot reuse that keeps steady-state
// checkpointing allocation-free once slot capacities stabilize.
func copyInto(dst, src *Snapshot) {
	dst.Rank, dst.Wave, dst.Seq = src.Rank, src.Wave, src.Seq
	dst.RecvCursor = append(dst.RecvCursor[:0], src.RecvCursor...)
	dst.SendCursor = append(dst.SendCursor[:0], src.SendCursor...)
	dst.Ints = append(dst.Ints[:0], src.Ints...)
	dst.Names = append(dst.Names[:0], src.Names...)
	dst.Vals = append(dst.Vals[:0], src.Vals...)
	if cap(dst.Fields) < len(src.Fields) {
		dst.Fields = make([]FieldSnap, len(src.Fields))
	}
	dst.Fields = dst.Fields[:len(src.Fields)]
	for i := range src.Fields {
		sf, df := &src.Fields[i], &dst.Fields[i]
		df.Name, df.Layout = sf.Name, sf.Layout
		df.Dims = append(df.Dims[:0], sf.Dims...)
		df.Data = append(df.Data[:0], sf.Data...)
	}
	dst.Checksum = src.Checksum
}

// slot is one rank's place in a store. Its lock covers everything done on
// the rank's behalf — sequence stamp, seal, deep copy, and in FileStore the
// encode and file write — so two ranks checkpointing at the same wave
// boundary work side by side, while a Latest that races a Save of the same
// rank still sees either the old snapshot or the new one, never a mix.
type slot struct {
	mu   sync.Mutex
	seq  int64
	snap *Snapshot // nil until the rank has saved (or FileStore has decoded)
}

// slots is the rank-indexed slot table both stores share; its own lock is
// held only to find or create a slot.
type slots struct {
	mu sync.Mutex
	m  map[int]*slot
}

// lookup returns rank's slot, or nil if nothing has created one: a read of
// a rank that never saved leaves the table as it was.
func (t *slots) lookup(rank int) *slot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[rank]
}

// get returns rank's slot, creating it on first use.
func (t *slots) get(rank int) *slot {
	t.mu.Lock()
	defer t.mu.Unlock()
	sl := t.m[rank]
	if sl == nil {
		if t.m == nil {
			t.m = map[int]*slot{}
		}
		sl = &slot{}
		t.m[rank] = sl
	}
	return sl
}

func checkRank(rank int) error {
	if rank < 0 {
		return fmt.Errorf("ckpt: invalid rank %d", rank)
	}
	return nil
}

// seal stamps the next sequence number and the checksum on s. Caller holds
// sl.mu.
func (sl *slot) seal(s *Snapshot) {
	sl.seq++
	s.Seq = sl.seq
	s.Checksum = checksum(s)
}

// keep deep-copies s into the slot's own snapshot. Caller holds sl.mu.
func (sl *slot) keep(s *Snapshot) {
	if sl.snap == nil {
		sl.snap = &Snapshot{}
	}
	copyInto(sl.snap, s)
}

// MemStore keeps each rank's latest snapshot in a reusable in-memory slot.
type MemStore struct {
	slots slots
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Save seals s and deep-copies it into rank s.Rank's slot.
func (m *MemStore) Save(s *Snapshot) error {
	if err := checkRank(s.Rank); err != nil {
		return err
	}
	sl := m.slots.get(s.Rank)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	sl.seal(s)
	sl.keep(s)
	return nil
}

// Latest returns rank's snapshot after re-verifying its seal, or nil if
// the rank has not saved.
func (m *MemStore) Latest(rank int) (*Snapshot, error) {
	if err := checkRank(rank); err != nil {
		return nil, err
	}
	sl := m.slots.lookup(rank)
	if sl == nil {
		return nil, nil
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.snap == nil {
		return nil, nil
	}
	if err := verify(sl.snap); err != nil {
		return nil, err
	}
	return sl.snap, nil
}

// Close is a no-op for the in-memory store.
func (m *MemStore) Close() error { return nil }
