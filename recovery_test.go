package wavefront_test

// Crash-recovery differential tests: a Tomcatv forward-elimination pipeline
// run with a deterministic injected rank crash must complete via
// restart-from-snapshot and match the fault-free serial result
// bit-for-bit, on the in-process channel transport and on loopback
// TCP/unix sockets.

import (
	"math"
	"testing"

	"wavefront"
	"wavefront/internal/field"
	"wavefront/internal/workload"
)

// tomcatvOracle builds a primed Tomcatv instance and the serial reference
// result of the forward sweep.
func tomcatvOracle(t *testing.T, n int) (*workload.Tomcatv, *workload.Tomcatv) {
	t.Helper()
	prep := func() *workload.Tomcatv {
		tc, err := workload.NewTomcatv(n, field.RowMajor)
		if err != nil {
			t.Fatal(err)
		}
		if err := wavefront.Exec(tc.ResidualBlock(), tc.Env); err != nil {
			t.Fatal(err)
		}
		if err := wavefront.Exec(tc.CoefficientBlock(), tc.Env); err != nil {
			t.Fatal(err)
		}
		return tc
	}
	oracle := prep()
	if err := wavefront.Exec(oracle.ForwardBlock(), oracle.Env); err != nil {
		t.Fatal(err)
	}
	return prep(), oracle
}

func tomcatvMaxDiff(a, b *workload.Tomcatv) float64 {
	worst := 0.0
	for _, name := range workload.TomcatvArrays {
		da, db := a.Env.Arrays[name].Data(), b.Env.Arrays[name].Data()
		for i := range da {
			if d := math.Abs(da[i] - db[i]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

func TestCrashRecoveryBitIdentical(t *testing.T) {
	const n, procs, block = 64, 4, 8
	transports := []struct {
		name string
		cfg  wavefront.TransportConfig
	}{
		{"chan", wavefront.TransportConfig{}},
		{"tcp", wavefront.TransportConfig{Kind: wavefront.TransportTCP}},
		{"unix", wavefront.TransportConfig{Kind: wavefront.TransportUnix}},
	}
	for _, tp := range transports {
		t.Run(tp.name, func(t *testing.T) {
			tc, oracle := tomcatvOracle(t, n)
			// Crash rank 1 inside the sweep, deterministically: on its
			// receive of the third boundary message from rank 0 (the run is
			// one wave, so the tile is pinned by its message tag).
			inj, err := wavefront.NewFaultInjector(wavefront.FaultPlan{Rules: []wavefront.FaultRule{{
				Op: wavefront.FaultOnRecv, Rank: 1, Peer: 0,
				Tag: 2, Action: wavefront.FaultCrash,
			}}})
			if err != nil {
				t.Fatal(err)
			}
			tr := wavefront.NewTraceRecorder(procs)
			_, err = wavefront.RunPipelined(tc.ForwardBlock(), tc.Env, wavefront.Pipeline{
				Procs: procs, Block: block,
				Faults:     inj,
				Trace:      tr,
				Transport:  tp.cfg,
				Checkpoint: &wavefront.Checkpoint{Every: 2},
			})
			if err != nil {
				t.Fatalf("crash did not recover: %v", err)
			}
			if inj.Fired() == 0 {
				t.Fatal("crash rule never fired; the run proves nothing")
			}
			if diff := tomcatvMaxDiff(tc, oracle); diff != 0 {
				t.Fatalf("recovered run diverged from the serial oracle by %g", diff)
			}
			restores := 0
			for _, ev := range tr.Events() {
				if ev.Rank == 1 && ev.Kind.String() == "restore" {
					restores++
					// Every: 2 cut a snapshot at the top of tile 2, just
					// before the receive that crashed.
					if ev.Wave != 0 || ev.Tile != 2 {
						t.Errorf("restore resumed at wave %d tile %d, want wave 0 tile 2", ev.Wave, ev.Tile)
					}
				}
			}
			if restores == 0 {
				t.Fatal("no restore event traced on the crashed rank")
			}
		})
	}
}

// TestCrashRecoveryTaskDAG covers the task-DAG scheduler: its single
// entry snapshot must recover a crash anywhere in the portion run.
func TestCrashRecoveryTaskDAG(t *testing.T) {
	const n, procs, block = 64, 4, 8
	tc, oracle := tomcatvOracle(t, n)
	inj, err := wavefront.NewFaultInjector(wavefront.FaultPlan{Rules: []wavefront.FaultRule{{
		Op: wavefront.FaultOnSend, Rank: 1, Peer: 2,
		Tag: wavefront.FaultAny, After: 2, Action: wavefront.FaultCrash,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = wavefront.RunPipelined(tc.ForwardBlock(), tc.Env, wavefront.Pipeline{
		Procs: procs, Block: block,
		Faults:     inj,
		Scheduler:  wavefront.SchedTaskDAG,
		Workers:    2,
		Checkpoint: &wavefront.Checkpoint{Every: 1},
	})
	if err != nil {
		t.Fatalf("crash did not recover: %v", err)
	}
	if inj.Fired() == 0 {
		t.Fatal("crash rule never fired")
	}
	if diff := tomcatvMaxDiff(tc, oracle); diff != 0 {
		t.Fatalf("recovered run diverged from the serial oracle by %g", diff)
	}
}

// TestCrashRecoveryFileStore runs the same recovery through the
// file-backed snapshot store.
func TestCrashRecoveryFileStore(t *testing.T) {
	const n, procs, block = 48, 3, 8
	tc, oracle := tomcatvOracle(t, n)
	store, err := wavefront.NewCheckpointFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	inj, err := wavefront.NewFaultInjector(wavefront.FaultPlan{Rules: []wavefront.FaultRule{{
		Op: wavefront.FaultOnRecv, Rank: 1, Peer: 0,
		Tag: 1, Action: wavefront.FaultCrash,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = wavefront.RunPipelined(tc.ForwardBlock(), tc.Env, wavefront.Pipeline{
		Procs: procs, Block: block,
		Faults:     inj,
		Checkpoint: &wavefront.Checkpoint{Every: 2, Store: store},
	})
	if err != nil {
		t.Fatalf("crash did not recover: %v", err)
	}
	if inj.Fired() == 0 {
		t.Fatal("crash rule never fired")
	}
	if diff := tomcatvMaxDiff(tc, oracle); diff != 0 {
		t.Fatalf("recovered run diverged from the serial oracle by %g", diff)
	}
}

// TestTransportBitIdentical locks in that a fault-free socket-transport
// run matches the serial oracle exactly — the wire protocol preserves
// float64 payloads bit-for-bit.
func TestTransportBitIdentical(t *testing.T) {
	for _, kind := range []wavefront.TransportKind{wavefront.TransportTCP, wavefront.TransportUnix} {
		t.Run(kind.String(), func(t *testing.T) {
			tc, oracle := tomcatvOracle(t, 48)
			_, err := wavefront.RunPipelined(tc.ForwardBlock(), tc.Env, wavefront.Pipeline{
				Procs: 3, Block: 8,
				Transport: wavefront.TransportConfig{Kind: kind},
			})
			if err != nil {
				t.Fatal(err)
			}
			if diff := tomcatvMaxDiff(tc, oracle); diff != 0 {
				t.Fatalf("socket-transport run diverged from the serial oracle by %g", diff)
			}
		})
	}
}
