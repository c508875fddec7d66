package ckpt

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// sample builds a fully-populated snapshot so every encoded section and
// every checksum branch is exercised.
func sample(rank int) *Snapshot {
	return &Snapshot{
		Rank: rank, Wave: 7,
		RecvCursor: []int64{0, 3, 5},
		SendCursor: []int64{0, 4, 2},
		Ints:       []int64{7, 2, 1},
		Names:      []string{"s:abs", "r:resid"},
		Vals:       []float64{1.5, -2.25},
		Fields: []FieldSnap{
			{Name: "x", Layout: 1, Dims: []int{0, 4, 0, 4}, Data: []float64{1, 2, 3, 4}},
			{Name: "y", Layout: 0, Dims: []int{1, 3}, Data: []float64{-0.5, 0.5}},
		},
	}
}

func TestMemStoreRoundTrip(t *testing.T) {
	st := NewMemStore()
	defer st.Close()
	s := sample(1)
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	if s.Seq != 1 {
		t.Errorf("Seq after first Save = %d, want 1", s.Seq)
	}
	want := sample(1)
	want.Seq, want.Checksum = s.Seq, s.Checksum

	// The caller keeps ownership: scribbling over the scratch snapshot must
	// not reach the stored copy.
	s.Fields[0].Data[0] = 999
	s.Vals[0] = 999

	got, err := st.Latest(1)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("Latest returned nil after Save")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}

	// A second Save overwrites the slot and bumps the sequence.
	s2 := sample(1)
	s2.Wave = 9
	if err := st.Save(s2); err != nil {
		t.Fatal(err)
	}
	if s2.Seq != 2 {
		t.Errorf("Seq after second Save = %d, want 2", s2.Seq)
	}
	got, err = st.Latest(1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Wave != 9 || got.Seq != 2 {
		t.Errorf("Latest after overwrite = wave %d seq %d, want wave 9 seq 2", got.Wave, got.Seq)
	}
}

func TestMemStoreEmptyAndInvalid(t *testing.T) {
	st := NewMemStore()
	if s, err := st.Latest(3); s != nil || err != nil {
		t.Errorf("Latest on empty store = %v, %v, want nil, nil", s, err)
	}
	if err := st.Save(&Snapshot{Rank: -1}); err == nil {
		t.Error("Save with negative rank succeeded")
	}
	if _, err := st.Latest(-1); err == nil {
		t.Error("Latest with negative rank succeeded")
	}
}

// TestLatestLeavesNoSlot: looking up ranks that never saved is read-only —
// neither store grows its slot table for them.
func TestLatestLeavesNoSlot(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemStore()
	for _, tc := range []struct {
		name  string
		st    Store
		slots *slots
	}{{"mem", mem, &mem.slots}, {"file", fs, &fs.slots}} {
		if err := tc.st.Save(sample(0)); err != nil {
			t.Fatal(err)
		}
		for rank := -2; rank < 50; rank++ {
			s, err := tc.st.Latest(rank)
			switch {
			case rank < 0 && err == nil:
				t.Errorf("%s: Latest(%d) succeeded", tc.name, rank)
			case rank == 0 && (s == nil || err != nil):
				t.Errorf("%s: Latest(0) = %v, %v, want the saved snapshot", tc.name, s, err)
			case rank > 0 && (s != nil || err != nil):
				t.Errorf("%s: Latest(%d) = %v, %v, want nil, nil", tc.name, rank, s, err)
			}
		}
		if n := len(tc.slots.m); n != 1 {
			t.Errorf("%s: %d slots after lookups of unsaved ranks, want 1", tc.name, n)
		}
	}
}

func TestMemStoreChecksumDetectsCorruption(t *testing.T) {
	st := NewMemStore()
	if err := st.Save(sample(0)); err != nil {
		t.Fatal(err)
	}
	held, err := st.Latest(0)
	if err != nil {
		t.Fatal(err)
	}
	// Violate the no-mutation contract on purpose: bit-flip one stored
	// element. The next Latest must refuse the snapshot, not hand back
	// silently wrong state.
	held.Fields[1].Data[0] = -held.Fields[1].Data[0]
	if _, err := st.Latest(0); !errors.Is(err, ErrChecksum) {
		t.Errorf("Latest after corruption = %v, want ErrChecksum", err)
	}
}

func TestFileStoreColdDecode(t *testing.T) {
	dir := t.TempDir()
	a, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := sample(2)
	if err := a.Save(s); err != nil {
		t.Fatal(err)
	}
	want := sample(2)
	want.Seq, want.Checksum = s.Seq, s.Checksum
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh store on the same directory simulates a new process recovering
	// a previous run's state: the cache is cold, so Latest must decode the
	// file and re-verify the seal.
	b, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got, err := b.Latest(2)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("cold Latest returned nil for a saved rank")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cold decode mismatch:\n got %+v\nwant %+v", got, want)
	}
	// The decoded sequence seeds the counter, so a later Save keeps
	// monotonic ordering across processes.
	s2 := sample(2)
	if err := b.Save(s2); err != nil {
		t.Fatal(err)
	}
	if s2.Seq != want.Seq+1 {
		t.Errorf("Seq after cold reopen = %d, want %d", s2.Seq, want.Seq+1)
	}
	if s, err := b.Latest(5); s != nil || err != nil {
		t.Errorf("Latest for an unsaved rank = %v, %v, want nil, nil", s, err)
	}
}

func TestFileStoreCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(sample(0)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	path := filepath.Join(dir, "rank-0.ckpt")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(t *testing.T, mutate func([]byte)) error {
		t.Helper()
		cp := append([]byte(nil), buf...)
		mutate(cp)
		if err := os.WriteFile(path, cp, 0o644); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Close()
		_, err = fresh.Latest(0)
		return err
	}

	// A flipped payload byte past the header decodes fine but fails the seal.
	if err := corrupt(t, func(b []byte) { b[len(b)/2] ^= 0x40 }); !errors.Is(err, ErrChecksum) {
		t.Errorf("payload bit-flip: Latest = %v, want ErrChecksum", err)
	}
	// A damaged magic number is not a snapshot file at all.
	if err := corrupt(t, func(b []byte) { b[0] ^= 0xff }); err == nil || errors.Is(err, ErrChecksum) {
		t.Errorf("bad magic: Latest = %v, want a decode error", err)
	}
	// A truncated file must error, not decode garbage.
	cp := append([]byte(nil), buf[:len(buf)-9]...)
	if err := os.WriteFile(path, cp, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := fresh.Latest(0); err == nil {
		t.Error("truncated file: Latest succeeded")
	}
}

// sealed returns a saved copy of sample(rank) (Seq and Checksum stamped)
// and its file encoding.
func sealed(t *testing.T, rank int) (*Snapshot, []byte) {
	t.Helper()
	s := sample(rank)
	if err := NewMemStore().Save(s); err != nil {
		t.Fatal(err)
	}
	return s, encode(nil, s)
}

// TestSealDetectsEverySingleBitFlip flips each bit of a small snapshot's
// encoding in turn. A flip that leaves the file decodable (payload words,
// string bytes, the stored seal itself, most length prefixes) must fail
// the seal; the rest must be refused as a format error. None may load.
func TestSealDetectsEverySingleBitFlip(t *testing.T) {
	_, buf := sealed(t, 1)
	sealFailures := 0
	for bit := 0; bit < 8*len(buf); bit++ {
		cp := append([]byte(nil), buf...)
		cp[bit/8] ^= 1 << (bit % 8)
		var s Snapshot
		err := decode(cp, &s)
		if err == nil {
			err = verify(&s)
			if !errors.Is(err, ErrChecksum) {
				t.Fatalf("bit %d (byte %d of %d) flipped: snapshot decoded and verify = %v, want ErrChecksum",
					bit, bit/8, len(buf), err)
			}
			sealFailures++
			continue
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("bit %d flipped: decode = %v, want a *FormatError", bit, err)
		}
	}
	// Only the magic and the high bits of length prefixes can make the
	// file undecodable; everything else is the seal's job.
	if sealFailures < 8*len(buf)/2 {
		t.Errorf("only %d of %d flips reached the seal", sealFailures, 8*len(buf))
	}
}

// TestSealDetectsAdjacentSignFlips is the case a word-wise FNV seal
// misses: its multiply only carries upwards, so the top bit of a word
// reaches only the top bit of the state, and the same flip in the next
// word cancels it. Every adjacent pair is tried, so pairs inside one
// four-lane stripe, across two stripes, and in the scalar tail are covered.
func TestSealDetectsAdjacentSignFlips(t *testing.T) {
	st := NewMemStore()
	s := sample(0)
	s.Fields[0].Data = make([]float64, 23)
	for i := range s.Fields[0].Data {
		s.Fields[0].Data[i] = 0.25 * float64(i+1)
	}
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	held, err := st.Latest(0)
	if err != nil {
		t.Fatal(err)
	}
	d := held.Fields[0].Data
	for i := 0; i+1 < len(d); i++ {
		d[i], d[i+1] = -d[i], -d[i+1]
		if _, err := st.Latest(0); !errors.Is(err, ErrChecksum) {
			t.Errorf("sign flips at elements %d and %d: Latest = %v, want ErrChecksum", i, i+1, err)
		}
		d[i], d[i+1] = -d[i], -d[i+1]
	}
	if _, err := st.Latest(0); err != nil {
		t.Fatalf("restored snapshot no longer verifies: %v", err)
	}
}

// TestFileStoreRejectsOldFormat: a WFCPKT01 file is sealed with byte-wise
// FNV-1a, which this version cannot verify; it must be refused by name,
// not misreported as corrupt.
func TestFileStoreRejectsOldFormat(t *testing.T) {
	dir := t.TempDir()
	_, buf := sealed(t, 0)
	if string(buf[:8]) != "20TKPCFW" { // "WFCPKT02", little-endian
		t.Fatalf("encoding starts with %q", buf[:8])
	}
	buf[0] = '1'
	if err := os.WriteFile(filepath.Join(dir, "rank-0.ckpt"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, err = st.Latest(0)
	var fe *FormatError
	if !errors.As(err, &fe) || fe.Version != "WFCPKT01" {
		t.Fatalf("Latest on a WFCPKT01 file = %v, want a *FormatError naming that version", err)
	}
	if errors.Is(err, ErrChecksum) {
		t.Errorf("old-format file reported as a checksum mismatch: %v", err)
	}
	if !strings.Contains(err.Error(), "rank-0.ckpt") {
		t.Errorf("error does not name the file: %v", err)
	}
}

// TestStoresConcurrentSaveAndLatest: two ranks save while a third
// goroutine reads. Per-rank slot locks must keep every Latest coherent (it
// re-verifies the seal under the slot lock, so a torn copy would surface
// as ErrChecksum); run under -race this also checks the locking itself.
func TestStoresConcurrentSaveAndLatest(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]Store{"mem": NewMemStore(), "file": fs} {
		t.Run(name, func(t *testing.T) {
			defer st.Close()
			const saves = 50
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for rank := 0; rank < 2; rank++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					s := sample(rank)
					s.Fields[0].Data = make([]float64, 4096)
					for i := 0; i < saves; i++ {
						s.Wave = i
						s.Fields[0].Data[i] = float64(i)
						if err := st.Save(s); err != nil {
							t.Errorf("rank %d save %d: %v", rank, i, err)
							return
						}
						if s.Seq != int64(i+1) {
							t.Errorf("rank %d save %d stamped Seq %d", rank, i, s.Seq)
						}
					}
				}(rank)
			}
			readerDone := make(chan struct{})
			go func() {
				defer close(readerDone)
				for {
					for rank := 0; rank < 3; rank++ {
						// The returned snapshot is only valid until the
						// rank's next Save, so just the verdict is read.
						if _, err := st.Latest(rank); err != nil {
							t.Errorf("Latest(%d) during saves: %v", rank, err)
							return
						}
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
			wg.Wait()
			close(stop)
			<-readerDone
			for rank := 0; rank < 2; rank++ {
				got, err := st.Latest(rank)
				if err != nil || got == nil || got.Seq != saves || got.Wave != saves-1 {
					t.Errorf("rank %d after the run: %+v, %v", rank, got, err)
				}
			}
		})
	}
}

// checksumSink keeps the benchmarked call from being optimized away.
var checksumSink uint64

// BenchmarkChecksum seals one rank's portion of prod_oneshot's shape.
func BenchmarkChecksum(b *testing.B) {
	s := sample(0)
	s.Fields[0].Data = make([]float64, 64*130)
	for i := range s.Fields[0].Data {
		s.Fields[0].Data[i] = float64(i)
	}
	b.SetBytes(int64(8 * len(s.Fields[0].Data)))
	for i := 0; i < b.N; i++ {
		checksumSink += checksum(s)
	}
}
