package exp

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestSimulatedFiguresGolden holds the deterministic simulator figures to
// their recorded quick-mode output byte for byte. fig4, fig5a, fig5b and
// ablate-tile date from before the simulator costed the runtime's schedule;
// fig7 was re-recorded then (EXPERIMENTS.md E7).
func TestSimulatedFiguresGolden(t *testing.T) {
	for _, id := range []string{"fig4", "fig5a", "fig5b", "ablate-tile", "fig7"} {
		t.Run(id, func(t *testing.T) {
			got := run(t, id).Text
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s differs from %s:\n--- got ---\n%s--- want ---\n%s", id, path, got, want)
			}
		})
	}
}
