package exp

import (
	"fmt"
	"strings"

	"wavefront/internal/dep"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/scan"
	"wavefront/internal/wsv"
)

func init() {
	register("fig3", "Figure 3: prime-operator semantics on a 5x5 array of 1s", fig3)
	register("wsv", "Section 2.2: WSV legality table (examples 1-4 and the direction sets)", wsvTable)
}

// fig3 executes a := 2*a@north and a := 2*a'@north over [2..n,1..n] and
// prints both result matrices with the derived loop structures.
func fig3(quick bool) *Result {
	const n = 5
	bounds := grid.MustRegion(grid.NewRange(1, n), grid.NewRange(1, n))
	region := grid.MustRegion(grid.NewRange(2, n), grid.NewRange(1, n))
	var sb strings.Builder

	run := func(primed bool, label string) error {
		env := &expr.MapEnv{Arrays: map[string]*field.Field{
			"a": field.MustNew("a", bounds, field.RowMajor),
		}}
		env.Arrays["a"].Fill(1)
		ref := expr.Ref("a").AtNamed("north", grid.North)
		if primed {
			ref = ref.Prime()
		}
		blk := scan.NewPlain(region, scan.Stmt{
			LHS: expr.Ref("a"),
			RHS: expr.Binary{Op: expr.Mul, L: expr.Const(2), R: ref},
		})
		an, err := scan.Analyze(blk, dep.Preference{PreferLow: true})
		if err != nil {
			return err
		}
		if err := scan.Exec(blk, env, scan.ExecOptions{}); err != nil {
			return err
		}
		fmt.Fprintf(&sb, "%s\n  loop: %s\n%s\n", label, an.Loop,
			indent(env.Arrays["a"].Format2(bounds), "  "))
		return nil
	}

	if err := run(false, "[2..n,1..n] a := 2 * a@north;   (Figure 3(a)->(c))"); err != nil {
		return &Result{Err: err}
	}
	if err := run(true, "[2..n,1..n] a := 2 * a'@north;  (Figure 3(d)->(f))"); err != nil {
		return &Result{Err: err}
	}
	return &Result{Text: sb.String()}
}

// wsvTable reproduces the worked examples of §2.2: WSV, simplicity,
// legality (decided by the dependence algorithm), and the per-dimension
// classification.
func wsvTable(quick bool) *Result {
	cases := []struct {
		name string
		dirs []grid.Direction
	}{
		{"{(-1,0),(-2,0)}", []grid.Direction{{-1, 0}, {-2, 0}}},
		{"{(-1,0),(-2,0),(-1,2)}", []grid.Direction{{-1, 0}, {-2, 0}, {-1, 2}}},
		{"{(-1,0),(0,-1)}", []grid.Direction{{-1, 0}, {0, -1}}},
		{"{(-1,0),(1,-2)}", []grid.Direction{{-1, 0}, {1, -2}}},
		{"Example 1: d1=d2=(-1,0)", []grid.Direction{{-1, 0}, {-1, 0}}},
		{"Example 2: (-1,0),(0,-1)", []grid.Direction{{-1, 0}, {0, -1}}},
		{"Example 3: (-1,0),(1,1)", []grid.Direction{{-1, 0}, {1, 1}}},
		{"Example 4: (0,-1),(0,1)", []grid.Direction{{0, -1}, {0, 1}}},
		{"Tomcatv: (-1,0)", []grid.Direction{{-1, 0}}},
	}
	rows := make([][]string, 0, len(cases))
	for _, c := range cases {
		w := wsv.Must(2, c.dirs...)
		cls := wsv.Classify(w)
		var udvs []dep.UDV
		for _, d := range c.dirs {
			udvs = append(udvs, dep.FromPrimed(make(grid.Direction, len(d)), d, "a", 0))
		}
		legal := "legal"
		loop := ""
		if spec, err := dep.Derive(2, udvs); err != nil {
			legal = "OVER-CONSTRAINED"
		} else {
			loop = spec.String()
		}
		roles := make([]string, len(cls.Roles))
		for i, r := range cls.Roles {
			roles[i] = r.String()
		}
		rows = append(rows, []string{
			c.name, w.String(), fmt.Sprint(w.Simple()), legal,
			strings.Join(roles, "/"), loop,
		})
	}
	return &Result{Text: table(
		[]string{"primed directions", "WSV", "simple", "legality", "dim roles", "derived loop"},
		rows)}
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pad + lines[i]
	}
	return strings.Join(lines, "\n")
}
