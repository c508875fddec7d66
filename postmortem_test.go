package wavefront_test

// Flight-recorder failure drills: every chaos scenario the wavebench CLI
// demonstrates (the rule tables live in internal/chaosspec so the CLI and
// this battery inject identical schedules) must leave a post-mortem bundle
// that round-trips through the decoder with its checksum verified, carries
// the trace tail, and — for the recovery scenarios — the checkpoint
// metadata a post-mortem of a restarted run needs. A tampered artifact
// must be rejected with ErrBundleChecksum.

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wavefront"
	"wavefront/internal/chaosspec"
)

func TestPostmortemBundleAcrossChaosScenarios(t *testing.T) {
	const n, procs, block, ckptEvery = 64, 4, 8, 2
	wantClass := map[string]string{
		"drop":          "deadlock",
		"corrupt":       "fault",
		"stall":         "deadlock",
		"crash":         "fault",
		"delay":         "fault",
		"backpressure":  "manual",
		"recover":       "recovery-restart",
		"recover-multi": "recovery-restart",
	}
	for _, mode := range chaosspec.Modes {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			rules, err := chaosspec.Rules(mode)
			if err != nil {
				t.Fatal(err)
			}
			var inj *wavefront.FaultInjector
			if len(rules) > 0 {
				if inj, err = wavefront.NewFaultInjector(wavefront.FaultPlan{Seed: 7, Rules: rules}); err != nil {
					t.Fatal(err)
				}
			}
			dir := t.TempDir()
			pm := wavefront.NewFlightRecorder(dir)
			tc, _ := tomcatvOracle(t, n)
			cfg := wavefront.Pipeline{Procs: procs, Block: block, Faults: inj, Postmortem: pm}
			if mode == "backpressure" {
				cfg.LinkCapacity = 1
			}
			if chaosspec.Recovery(mode) {
				cfg.Metrics = wavefront.NewMetrics(procs)
				cfg.Checkpoint = &wavefront.Checkpoint{Every: ckptEvery}
			}
			_, runErr := wavefront.RunPipelined(tc.ForwardBlock(), tc.Env, cfg)
			if chaosspec.Clean(mode) {
				if runErr != nil {
					t.Fatalf("%s run must complete, got: %v", mode, runErr)
				}
			} else if runErr == nil {
				t.Fatalf("%s run completed without the predicted failure", mode)
			}

			_, path := pm.Last()
			if path == "" {
				// Nothing fired (backpressure is faultless): the run state is
				// stashed, capture it on demand.
				if _, path, err = pm.CaptureNow("manual"); err != nil {
					t.Fatalf("CaptureNow: %v", err)
				}
			}
			b, err := wavefront.ReadPostmortemBundle(path)
			if err != nil {
				t.Fatalf("bundle %s did not round-trip: %v", path, err)
			}
			if b.Class != wantClass[mode] {
				t.Errorf("bundle class = %q, want %q", b.Class, wantClass[mode])
			}
			if len(b.TraceTail) == 0 {
				t.Error("bundle has no trace tail: the flight ring never armed")
			}
			// The Tomcatv forward block pipelines along dimension 0 and tiles
			// dimension 1; a one-block run's bundle names both.
			if b.Config.Procs != procs || b.Config.Block != block ||
				b.Config.WavefrontDim != 0 || b.Config.TileDim != 1 {
				t.Errorf("bundle config %+v does not record the run", b.Config)
			}
			if chaosspec.Recovery(mode) {
				if len(b.Ckpt) == 0 {
					t.Error("recovery bundle lacks checkpoint metadata")
				}
				if b.Restarts == 0 {
					t.Error("recovery bundle records no restarts")
				}
			}
			if !strings.HasPrefix(filepath.Base(path), "postmortem-") {
				t.Errorf("unexpected bundle name %q", filepath.Base(path))
			}
		})
	}
}

func TestPostmortemTamperedFileRejected(t *testing.T) {
	const n, procs, block = 64, 4, 8
	rules, err := chaosspec.Rules("crash")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := wavefront.NewFaultInjector(wavefront.FaultPlan{Seed: 7, Rules: rules})
	if err != nil {
		t.Fatal(err)
	}
	pm := wavefront.NewFlightRecorder(t.TempDir())
	tc, _ := tomcatvOracle(t, n)
	if _, err := wavefront.RunPipelined(tc.ForwardBlock(), tc.Env,
		wavefront.Pipeline{Procs: procs, Block: block, Faults: inj, Postmortem: pm}); err == nil {
		t.Fatal("injected crash did not propagate")
	}
	_, path := pm.Last()
	if path == "" {
		t.Fatal("crash left no bundle")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), `"class":"fault"`, `"class":"clean"`, 1)
	if tampered == string(data) {
		t.Fatal("tamper replacement did not apply")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := wavefront.ReadPostmortemBundle(path)
	if !errors.Is(err, wavefront.ErrBundleChecksum) {
		t.Fatalf("tampered bundle read without ErrBundleChecksum: %v", err)
	}
	if b == nil {
		t.Fatal("tampered read should still return the decoded bundle for inspection")
	}
}
