package ckpt

// FileStore: crash-stop durable snapshots, one file per rank, written with
// the classic temp-file-then-rename dance so a reader never observes a
// torn snapshot. The encoding is little-endian binary — length-prefixed
// slices in the same canonical order the checksum walks — and Latest
// re-verifies the seal after decode, so a corrupted file surfaces as
// ErrChecksum rather than silent wrong state.

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// fileMagic names the file format, the seal algorithm included: "WFCPKT02"
// is the first sealed with the word-wise hash. A "WFCPKT01" file carries a
// byte-wise FNV-1a seal this version cannot verify, so it is refused by
// name rather than reported as corrupt.
const (
	fileMagic    = 0x574643504b543032 // "WFCPKT02"
	fileMagicV01 = 0x574643504b543031 // "WFCPKT01"
)

// FormatError reports a snapshot file that cannot be decoded at all — as
// opposed to ErrChecksum, a file that decodes but fails its seal.
type FormatError struct {
	// Version is the format name the file carries when it is a snapshot
	// file of another version ("WFCPKT01"); empty otherwise.
	Version string
	// Reason says what was wrong.
	Reason string
}

func (e *FormatError) Error() string {
	if e.Version != "" {
		return fmt.Sprintf("ckpt: snapshot file has format %s, this version reads only WFCPKT02: %s", e.Version, e.Reason)
	}
	return "ckpt: unreadable snapshot file: " + e.Reason
}

// FileStore persists each rank's latest snapshot as dir/rank-N.ckpt. Each
// slot's snapshot mirrors its file: Latest decodes once, later calls reuse
// the mirror.
type FileStore struct {
	dir   string
	slots slots
}

// NewFileStore opens (creating if needed) a file-backed store rooted at dir.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

func (f *FileStore) path(rank int) string {
	return filepath.Join(f.dir, fmt.Sprintf("rank-%d.ckpt", rank))
}

// Save seals s and atomically replaces rank s.Rank's snapshot file.
func (f *FileStore) Save(s *Snapshot) error {
	if err := checkRank(s.Rank); err != nil {
		return err
	}
	sl := f.slots.get(s.Rank)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	sl.seal(s)
	buf := encode(nil, s)
	tmp, err := os.CreateTemp(f.dir, "ckpt-*")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := os.Rename(tmp.Name(), f.path(s.Rank)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("ckpt: %w", err)
	}
	sl.keep(s)
	return nil
}

// Latest returns rank's snapshot, decoding its file when the in-memory
// mirror is cold (a fresh process recovering a previous run's state). A
// rank with neither a slot nor a file gets nil and no slot.
func (f *FileStore) Latest(rank int) (*Snapshot, error) {
	if err := checkRank(rank); err != nil {
		return nil, err
	}
	if f.slots.lookup(rank) == nil {
		if _, err := os.Stat(f.path(rank)); os.IsNotExist(err) {
			return nil, nil
		}
	}
	sl := f.slots.get(rank)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.snap != nil {
		if err := verify(sl.snap); err != nil {
			return nil, err
		}
		return sl.snap, nil
	}
	buf, err := os.ReadFile(f.path(rank))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	s := &Snapshot{}
	if err := decode(buf, s); err != nil {
		return nil, fmt.Errorf("%s: %w", f.path(rank), err)
	}
	if err := verify(s); err != nil {
		return nil, err
	}
	sl.snap = s
	if s.Seq > sl.seq {
		sl.seq = s.Seq
	}
	return s, nil
}

// Close drops the in-memory mirrors; the snapshot files stay for a later
// process to recover from.
func (f *FileStore) Close() error {
	f.slots.mu.Lock()
	defer f.slots.mu.Unlock()
	for _, sl := range f.slots.m {
		sl.mu.Lock()
		sl.snap = nil
		sl.mu.Unlock()
	}
	return nil
}

func encode(b []byte, s *Snapshot) []byte {
	le := binary.LittleEndian
	b = le.AppendUint64(b, fileMagic)
	b = le.AppendUint64(b, uint64(int64(s.Rank)))
	b = le.AppendUint64(b, uint64(int64(s.Wave)))
	b = le.AppendUint64(b, uint64(s.Seq))
	appendI64s := func(vs []int64) {
		b = le.AppendUint64(b, uint64(len(vs)))
		for _, v := range vs {
			b = le.AppendUint64(b, uint64(v))
		}
	}
	appendI64s(s.RecvCursor)
	appendI64s(s.SendCursor)
	appendI64s(s.Ints)
	b = le.AppendUint64(b, uint64(len(s.Names)))
	for _, n := range s.Names {
		b = le.AppendUint64(b, uint64(len(n)))
		b = append(b, n...)
	}
	b = le.AppendUint64(b, uint64(len(s.Vals)))
	for _, v := range s.Vals {
		b = le.AppendUint64(b, math.Float64bits(v))
	}
	b = le.AppendUint64(b, uint64(len(s.Fields)))
	for i := range s.Fields {
		fs := &s.Fields[i]
		b = le.AppendUint64(b, uint64(len(fs.Name)))
		b = append(b, fs.Name...)
		b = le.AppendUint64(b, uint64(int64(fs.Layout)))
		b = le.AppendUint64(b, uint64(len(fs.Dims)))
		for _, d := range fs.Dims {
			b = le.AppendUint64(b, uint64(int64(d)))
		}
		b = le.AppendUint64(b, uint64(len(fs.Data)))
		for _, v := range fs.Data {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
	}
	b = le.AppendUint64(b, s.Checksum)
	return b
}

type decoder struct {
	b   []byte
	err error
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.err = &FormatError{Reason: "truncated"}
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

// count reads a length prefix, refusing lengths the remaining bytes cannot
// hold (at least one byte per element) so a corrupted prefix cannot drive
// a giant allocation.
func (d *decoder) count() int {
	n := d.u64()
	if d.err == nil && n > uint64(len(d.b)) {
		d.err = &FormatError{Reason: fmt.Sprintf("length %d exceeds the %d bytes left", n, len(d.b))}
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	if len(d.b) < n {
		d.err = &FormatError{Reason: "truncated"}
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) i64s() []int64 {
	n := d.count()
	if d.err != nil || n == 0 {
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = int64(d.u64())
	}
	return vs
}

func (d *decoder) f64s() []float64 {
	n := d.count()
	if d.err != nil || n == 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = math.Float64frombits(d.u64())
	}
	return vs
}

func decode(b []byte, s *Snapshot) error {
	d := &decoder{b: b}
	switch magic := d.u64(); {
	case d.err != nil:
		return d.err
	case magic == fileMagicV01:
		return &FormatError{Version: "WFCPKT01", Reason: "its seal is byte-wise FNV-1a; re-run from the start to write fresh snapshots"}
	case magic != fileMagic:
		return &FormatError{Reason: "bad magic"}
	}
	s.Rank = int(int64(d.u64()))
	s.Wave = int(int64(d.u64()))
	s.Seq = int64(d.u64())
	s.RecvCursor = d.i64s()
	s.SendCursor = d.i64s()
	s.Ints = d.i64s()
	n := d.count()
	s.Names = make([]string, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		s.Names = append(s.Names, d.str())
	}
	s.Vals = d.f64s()
	nf := d.count()
	s.Fields = make([]FieldSnap, 0, nf)
	for i := 0; i < nf && d.err == nil; i++ {
		var fs FieldSnap
		fs.Name = d.str()
		fs.Layout = int(int64(d.u64()))
		dims := d.i64s()
		fs.Dims = make([]int, len(dims))
		for j, v := range dims {
			fs.Dims[j] = int(v)
		}
		fs.Data = d.f64s()
		s.Fields = append(s.Fields, fs)
	}
	s.Checksum = d.u64()
	return d.err
}
