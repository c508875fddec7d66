package pipeline

import (
	"strings"
	"testing"

	"wavefront/internal/ckpt"
	"wavefront/internal/fault"
	"wavefront/internal/field"
	"wavefront/internal/scan"
	"wavefront/internal/workload"
)

// TestRunRefusesSessionFields: Run derives Domain and WavefrontDim from its
// block and has no session to close a metrics endpoint, so a config that
// sets Domain or MetricsAddr is an error that names NewSession — not a
// field silently ignored. Plan, which builds the same session, agrees.
func TestRunRefusesSessionFields(t *testing.T) {
	tom, err := workload.NewTomcatv(18, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	blk := tom.ForwardBlock()
	for _, c := range []struct {
		name string
		set  func(*Config)
		ok   bool
	}{
		{"bare", func(*Config) {}, true},
		{"WavefrontDim is derived, not refused", func(c *Config) { c.WavefrontDim = 1 }, true},
		{"Domain", func(c *Config) { c.Domain = tom.All }, false},
		{"MetricsAddr", func(c *Config) { c.MetricsAddr = "127.0.0.1:0" }, false},
	} {
		cfg := DefaultConfig(2, 4)
		c.set(&cfg)
		st, err := Run(blk, tom.Env, cfg)
		_, _, _, _, perr := Plan(blk, tom.Env, cfg)
		switch {
		case c.ok && (err != nil || perr != nil):
			t.Errorf("%s: Run %v, Plan %v; want both accepted", c.name, err, perr)
		case c.ok && st.WavefrontDim != 0:
			t.Errorf("%s: ran along dimension %d, want the analysis' 0", c.name, st.WavefrontDim)
		case !c.ok && (err == nil || !strings.Contains(err.Error(), "NewSession")):
			t.Errorf("%s: Run returned %v, want a refusal naming NewSession", c.name, err)
		case !c.ok && perr == nil:
			t.Errorf("%s: Plan accepted what Run refuses", c.name)
		}
	}
}

// widthStore hands a restarting rank its snapshot with the stored tile
// width moved by delta.
type widthStore struct {
	ckpt.Store
	delta int64
}

func (s *widthStore) Latest(rank int) (*ckpt.Snapshot, error) {
	snap, err := s.Store.Latest(rank)
	if snap != nil && s.delta != 0 {
		c := *snap
		c.Ints = append([]int64(nil), snap.Ints...)
		c.Ints[5] += s.delta
		snap = &c
	}
	return snap, err
}

// TestRestoreRefusesOtherTileWidth: a snapshot's tile index and message
// count are positions in one tiling. Restoring one cut at another width
// than the session runs at must fail the run, not resume at a tile that
// means something else.
func TestRestoreRefusesOtherTileWidth(t *testing.T) {
	const n, procs, block = 26, 3, 4
	for _, c := range []struct {
		name  string
		delta int64
		ok    bool
	}{
		{"same width", 0, true},
		{"wider", 1, false},
		{"naive", -block, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			tom, err := workload.NewTomcatv(n, field.RowMajor)
			if err != nil {
				t.Fatal(err)
			}
			blk := tom.ForwardBlock()
			inj := fault.MustNew(fault.Plan{Rules: []fault.Rule{{
				Op: fault.OpRecv, Rank: 1, Peer: 0, Tag: fault.Any, Wave: 1, After: 2, Action: fault.ActCrash}}})
			sess, err := NewSession(tom.Env, []*scan.Block{blk}, Config{
				Procs: procs, Domain: tom.All, Block: block, Faults: inj,
				Checkpoint: &CheckpointConfig{Store: &widthStore{Store: ckpt.NewMemStore(), delta: c.delta}},
			})
			if err != nil {
				t.Fatal(err)
			}
			err = sess.Run(func(r *Rank) error { return r.Exec(blk) })
			if inj.Fired() == 0 {
				t.Fatal("crash rule never fired; the run proves nothing")
			}
			switch {
			case c.ok && err != nil:
				t.Errorf("restore at the session's own width failed: %v", err)
			case !c.ok && (err == nil || !strings.Contains(err.Error(), "tile width")):
				t.Errorf("run returned %v, want the snapshot refused for its tile width", err)
			}
		})
	}
}
